"""The ``collabnet`` script, and ``python -m collabnet``: run
:mod:`collabnet.cli` as ``__main__``, as ``python -m collabnet.cli`` does,
so that every process entry passes through that module's one start-up
(see :mod:`collabnet.cli`). Nothing here loads numpy."""

import runpy


def main() -> None:
    runpy.run_module("collabnet.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
