"""Build outputs held to fixed hashes.

The other tests compare the pipeline against oracles computed in the same
interpreter, so they cannot see bytes that change between Python or numpy
versions. This test builds a fixed input and compares the sha256 of every
artifact with constants recorded on Python 3.11.7 and numpy 2.4.6. A
failure on another version means the output bytes depend on the version;
a deliberate change of the output format must update the constants and
say so.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from collabnet import cli

GOLDEN_INPUT = Path(__file__).parent / "data" / "golden_input.csv"  # synth seed 11, 50 x 48

GOLDEN_SHA256 = {
    "layer_00_t0.dot": "cad958eef056fe742879cf04beaa7259fcb525f99e1feaf0a13b7b628d4c21bd",
    "layer_00_t0.graphml": "58181c544dfeae8b0f3ab7bdb834970eb4348da30e83fe5d6e376374a13a5c00",
    "layer_00_t0.json": "7421d7a5b5f15cd46f668f92f6f44e93819ca2b79d9d56905bbf4df33032b1da",
    "layer_01_t25.dot": "635ce8d13646ea11ef063ba51a69e6ecf8f0ee89d373ebb7e3553d6a008c0240",
    "layer_01_t25.graphml": "57d49644bc2e412c9865e1358914914a46325566c6a401f69a9854db005e7428",
    "layer_01_t25.json": "4e4cde32f86f867fa01093bd265853d9610775b4b88264fce553f12f89254710",
    "layer_02_t50.dot": "01e16af39429df1d100663511b3f2692fd46106a2980b7798a40372ab6a8999c",
    "layer_02_t50.graphml": "325b8c337e3aa588afcd48d1bf7ff58e0f82b528e2ea2317cc4d03ebb9c7eb84",
    "layer_02_t50.json": "6ba2b8efaab010f7a689a3a2f826ee50a4cb317581a72aeafdbf5d08db9b7558",
    "layer_03_t75.dot": "0d379ab9e87ec8bd65a4ce3aadcffb6323b14aec83b373787fef4d3bacef4b0d",
    "layer_03_t75.graphml": "df75ac4646472667716a959f084c240cf10f6e6b5c13df064256e1c6c9098fbf",
    "layer_03_t75.json": "644992130a3178199afbe514185acbe452aede98923dd40d30f07b75c68a8bc3",
    "linkage.csv": "8febef4d49750d5a7f0f34ddcbee4e192eaad9ce0ca99877e19d9cba7e528f7a",
    "metrics.csv": "9f5398751514b4f8da6ba37a5d34908260806dd6ed70bfa1863e2a4ca81a41e2",
    "metrics.json": "c8c8166ff088cf232d782675305665d651acb141f8db207c1f539cc07d942ddc",
    "stats_contribution_pct.csv": "2d3c3985a2f60ebd4764ec7f58001fa23d05584fc3bb3c8445e51c9efa0988c0",
    "stats_ic_score.csv": "5c75251eec09188e0b44cd7c3a995582a479bb447eb7cd878ec4bcb6c88b01af",
    "stats_summary.json": "36415eb009bf7d9e7ce93efb0f96777d86f43fc1e1b4943d6144602640880764",
}


def test_build_artifacts_match_recorded_hashes(tmp_path):
    found = {}
    for fmt in ("json", "graphml", "dot"):
        out = tmp_path / fmt
        argv = ["build", str(GOLDEN_INPUT), "--thresholds", "0,25,50,75", "--format", fmt]
        assert cli.main([*argv, "--dump-linkage", "--output-dir", str(out)]) == 0
        found.update(json.loads((out / "manifest.json").read_bytes())["artifacts"])
    assert found == GOLDEN_SHA256


def test_module_entry_builds_the_recorded_bytes(tmp_path):
    """``python -m collabnet.cli``, the benchmark's own invocation, runs
    through the process entry and writes the same bytes."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["build", str(GOLDEN_INPUT), "--thresholds", "0,25,50,75", "--format", "json"]
    result = subprocess.run(
        [sys.executable, "-m", "collabnet.cli", *argv, "--dump-linkage", "--output-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    found = json.loads((tmp_path / "manifest.json").read_bytes())["artifacts"]
    assert found == {n: h for n, h in GOLDEN_SHA256.items() if not n.endswith((".graphml", ".dot"))}
