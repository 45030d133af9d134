"""Fixed host-speed kernel, run as its own child process next to every
timed operation:

    python3 bench/calibrate.py

It does the kind of work collabnet's CLI does, on a working set of similar
size: pure-Python lists, string-keyed dicts and frozenset pairs over about
75 MB, with a seeded random access order. It never changes with the
program, so its wall time measures only how fast the host runs Python at
that moment. ``run.py`` divides each operation's wall time by the kernel's
time around it (see README.md, "Host speed").
"""

import random

N = 100_000

rng = random.Random(7)
adj = [[rng.randrange(N) for _ in range(4)] for _ in range(N)]
keys = [f"m{i:07d}" for i in range(N)]
order = list(range(N))
rng.shuffle(order)
weight: dict[str, int] = {}
for v in order:
    for w in adj[v]:
        weight[keys[w]] = weight.get(keys[w], 0) + len(adj[w])
pairs = {frozenset((keys[v], keys[adj[v][0]])) for v in order}
if sum(weight.values()) != 16 * N or not pairs:
    raise SystemExit("calibration kernel computed a wrong result")
