from __future__ import annotations

import csv
import fcntl
import gc
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from xml.dom import minidom

import numpy as np
import pytest

from collabnet import cli, layers, metrics, synth
from collabnet.cli import ConfigError, RunConfig, run_pipeline
from collabnet.export import ExportFormat
from collabnet.synth import SynthConfig, generate_csv_bytes

GOLDEN_INPUT = Path(__file__).parent / "data" / "golden_input.csv"
# one row per row check, a row with two faults, an unreadable row and an
# over-limit project; the CI runtime job diffs its ingest stderr too
MALFORMED_INPUT = Path(__file__).parent / "data" / "malformed_input.csv"
MALFORMED_STDERR = Path(__file__).parent / "data" / "malformed_input.stderr"
# two pairs whose linkages are one ulp apart; the CI runtime job builds it too
NARROW_INPUT = Path(__file__).parent / "data" / "narrow_linkage.csv"
# one project whose contributions total exactly 100.5, though a float sum of
# them does not; the CI runtime job ingests it under --strict too
EXACT_LIMIT_INPUT = Path(__file__).parent / "data" / "exact_limit.csv"
# P1 lists M1 twice; the CI runtime job runs stats on it too
DUPLICATE_INPUT = Path(__file__).parent / "data" / "duplicate_membership.csv"
SMALL_CSV = generate_csv_bytes(SynthConfig(seed=11, n_projects=50, n_members=48))
# P1's contributions sum to 110, above the accepted 100.5
OVER_CSV = "project_id,member_id,contribution_pct,project_type\nP1,M1,70,IP\nP1,M2,40,IP\nP2,M1,10,IP\n"
OVER_MESSAGE = "project P1 contributions sum to 110.0000\n"


@pytest.fixture()
def small_input(tmp_path):
    path = tmp_path / "input.csv"
    path.write_bytes(SMALL_CSV)
    return path


def run(argv):
    return cli.main(argv)


def test_synth_to_file_and_stdout(tmp_path, capsysbinary):
    out = tmp_path / "synth.csv"
    assert run(["synth", "--seed", "7", "--projects", "30", "--members", "32", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.startswith(b"project_id,member_id,contribution_pct,ic_score,project_type")

    assert run(["synth", "--seed", "7", "--projects", "30", "--members", "32"]) == 0
    assert capsysbinary.readouterr().out == data


def test_ingest_summary(small_input, capsys):
    assert run(["ingest", str(small_input)]) == 0
    rows = list(csv.DictReader(io.StringIO(SMALL_CSV.decode())))
    types = {row["project_id"]: row["project_type"] for row in rows}
    expected = [
        f"records: {len(rows)}",
        f"projects: {len(types)}",
        f"members: {len({row['member_id'] for row in rows})}",
        *(f"projects[{name}]: {n}" for name, n in sorted(Counter(types.values()).items())),
    ]
    assert expected[1] == "projects: 50"
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


def test_ingest_bad_file_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("project_id,member_id,contribution_pct,project_type\nP1,M1,150,IP\n")
    assert run(["ingest", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_ingest_missing_file_exit_1(capsys):
    assert run(["ingest", "/nonexistent/input.csv"]) == 1


def test_ingest_lenient_reports_skips(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "project_id,member_id,contribution_pct,project_type\nP1,M1,150,IP\nP2,M2,50,IP\n"
    )
    assert run(["ingest", str(bad), "--lenient"]) == 0
    captured = capsys.readouterr()
    assert "skipped row 2" in captured.err
    assert "projects: 1" in captured.out


def test_stats_outputs(small_input, tmp_path, capsys):
    out_dir = tmp_path / "stats"
    assert run(["stats", str(small_input), "--output-dir", str(out_dir)]) == 0
    names = {p.name for p in out_dir.iterdir()}
    assert names == {"stats_contribution_pct.csv", "stats_ic_score.csv", "stats_summary.json"}
    summary = json.loads((out_dir / "stats_summary.json").read_text())
    assert summary["notes"]["linkage_feature"] == "contribution_pct"


def test_stats_checks_memberships_as_ingest_and_build_do(tmp_path, capsys):
    """stats loads through the same loader: a repeated membership fails it
    with one error line and nothing written, and an over-limit project is
    a warning."""
    out_dir = tmp_path / "stats"
    assert run(["ingest", str(DUPLICATE_INPUT)]) == 1
    error = capsys.readouterr()
    assert run(["stats", str(DUPLICATE_INPUT), "--output-dir", str(out_dir)]) == 1
    assert capsys.readouterr() == error == ("", "error: duplicate membership (P1, M1)\n")
    assert not out_dir.exists()

    over = tmp_path / "over.csv"
    over.write_text(OVER_CSV)
    assert run(["stats", str(over), "--output-dir", str(out_dir)]) == 0
    assert capsys.readouterr().err == "warning: " + OVER_MESSAGE


def test_build_explicit_thresholds(small_input, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = run(
        [
            "build",
            str(small_input),
            "--thresholds",
            "0,20,40,60,80,100",
            "--output-dir",
            str(out_dir),
            "--dump-linkage",
        ]
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    layer_files = [n for n in names if n.startswith("layer_")]
    assert len(layer_files) == 6
    assert layer_files[0] == "layer_00_t0.graphml"
    assert layer_files[-1] == "layer_05_t100.graphml"
    assert "metrics.csv" in names and "metrics.json" in names
    assert "manifest.json" in names and "linkage.csv" in names

    rows = (out_dir / "metrics.csv").read_text().strip().split("\n")
    assert len(rows) == 7  # header + 6 thresholds
    assert [r.split(",")[0] for r in rows[1:]] == ["0.0", "20.0", "40.0", "60.0", "80.0", "100.0"]


def test_build_type_filter(small_input, tmp_path):
    out_dir = tmp_path / "ip_only"
    assert run(
        ["build", str(small_input), "--thresholds", "0,50", "--types", "ip", "--output-dir", str(out_dir)]
    ) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["types"] == ["IP"]


def test_build_linspace_matches_explicit_when_range_is_0_100(tmp_path):
    # craft input whose linkage range is exactly [0, 100]
    text = (
        "project_id,member_id,contribution_pct,ic_score,project_type\n"
        "A,M1,0,,IP\nA,M2,100,,IP\n"
        "B,M1,0,,IP\nB,M3,100,,IP\n"
        "C,M4,100,,IP\n"
        "D,M4,100,,IP\n"
    )
    src = tmp_path / "in.csv"
    src.write_text(text)
    explicit_dir, linspace_dir = tmp_path / "explicit", tmp_path / "linspace"
    assert run(["build", str(src), "--thresholds", "0,20,40,60,80,100", "--output-dir", str(explicit_dir)]) == 0
    assert run(["build", str(src), "--linspace", "6", "--output-dir", str(linspace_dir)]) == 0
    assert (explicit_dir / "metrics.csv").read_bytes() == (linspace_dir / "metrics.csv").read_bytes()


def test_build_linspace_on_a_range_narrower_than_its_points_exit_1(tmp_path, capsys):
    # the two pairs' linkages are exactly 50 and 50.0000001: every threshold
    # between them rounds to the label t50
    out_dir = tmp_path / "out"
    assert run(["build", str(NARROW_INPUT), "--linspace", "3", "--output-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: linkage range [50.0, 50.0000001] is too narrow for 3 thresholds\n"
    )
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "args, code, message",
    [
        (
            [str(GOLDEN_INPUT), "--thresholds", "50,50.0000001"],
            2,
            "thresholds 50.0 and 50.0000001 share the label t50",
        ),
        (
            [str(GOLDEN_INPUT), "--thresholds=-0.0000001,0.0000001"],
            2,
            "thresholds -1e-07 and 1e-07 share the label t0",
        ),
        (
            [str(NARROW_INPUT), "--linspace", "2"],
            1,
            "linkage range [50.0, 50.0000001] is too narrow for 2 thresholds",
        ),
    ],
    ids=["thresholds", "negative_zero", "linspace"],
)
def test_build_with_two_thresholds_of_one_label_fails(tmp_path, capsys, args, code, message):
    """Each would write two layers of one name: the labels round to 6
    decimals, and one that rounds to zero is t0 whatever its sign."""
    out_dir = tmp_path / "out"
    assert run(["build", *args, "--output-dir", str(out_dir)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out_dir.exists()


def test_build_is_deterministic(small_input, tmp_path):
    """Five builds back to back: equal bytes, and each manifest lists the
    sha256 of the files written."""
    argv = ["build", str(small_input), "--thresholds", "0,30,60", "--format", "json", "--dump-linkage"]
    outputs = []
    for i in range(5):
        out_dir = tmp_path / f"run{i}"
        assert run([*argv, "--output-dir", str(out_dir)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    for output in outputs:
        listed = json.loads(output["manifest.json"])["artifacts"]
        assert listed == {
            name: hashlib.sha256(blob).hexdigest() for name, blob in output.items() if name != "manifest.json"
        }
    assert len(outputs[0]) == 10
    assert all(output == outputs[0] for output in outputs)


def test_build_manifest_hashes(small_input, tmp_path):
    out_dir = tmp_path / "out"
    run(["build", str(small_input), "--thresholds", "0,50", "--output-dir", str(out_dir)])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["input"]["sha256"] == hashlib.sha256(SMALL_CSV).hexdigest()
    for name, digest in manifest["artifacts"].items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest


def test_build_stdin(small_input, tmp_path, monkeypatch):
    out_dir = tmp_path / "out"
    monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(SMALL_CSV)})())
    assert run(["build", "-", "--thresholds", "0,50", "--output-dir", str(out_dir)]) == 0
    assert (out_dir / "metrics.csv").exists()


def test_output_dir_env_default(small_input, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
    monkeypatch.chdir(tmp_path)
    assert run(["build", str(small_input), "--thresholds", "0,50"]) == 0
    assert (target / "metrics.csv").exists()


def test_mutually_exclusive_threshold_flags(small_input):
    with pytest.raises(SystemExit) as exc:
        run(["build", str(small_input), "--thresholds", "0,20", "--linspace", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["build", str(small_input)])
    assert exc.value.code == 2


def test_type_filter_removing_every_project_exits_1(tmp_path, capsys):
    all_ip = tmp_path / "ip.csv"
    all_ip.write_text("project_id,member_id,contribution_pct,project_type\nP1,M1,50,IP\nP2,M1,50,IP\n")
    out = tmp_path / "out"
    argv = ["build", str(all_ip), "--thresholds", "0,20", "--types", "paper", "--output-dir", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: type filter removed every project\n"
    assert not out.exists()


def test_config_errors_exit_2(small_input, tmp_path, capsys):
    assert run(["build", str(small_input), "--thresholds", "20,10", "--output-dir", str(tmp_path / "x")]) == 2
    assert run(["build", str(small_input), "--thresholds", "abc", "--output-dir", str(tmp_path / "y")]) == 2
    assert run(["build", str(small_input), "--thresholds", "0,20", "--types", "invoice"]) == 2
    out = str(tmp_path / "z")
    assert run(["build", str(small_input), "--thresholds", "0,1e400", "--output-dir", out]) == 2
    assert run(["build", str(small_input), "--thresholds", "0,20", "--bins", "0", "--output-dir", out]) == 2
    assert run(["build", str(small_input), "--thresholds", "0,20", "--delimiter", ";;", "--output-dir", out]) == 2
    capsys.readouterr()
    for delimiter in ('"', "\n", "\r"):  # the csv quote character and line breaks
        assert run(["ingest", str(small_input), "--delimiter", delimiter]) == 2
        assert run(["stats", str(small_input), "--delimiter", delimiter, "--output-dir", out]) == 2
        build = ["build", str(small_input), "--thresholds", "0,20", "--output-dir", out]
        assert run([*build, "--delimiter", delimiter]) == 2
        assert capsys.readouterr().err.count("error: --delimiter must be one character") == 3
    assert not (tmp_path / "z").exists()
    assert run(["build", str(small_input), "--thresholds", "0,20", "--bins", "abc", "--output-dir", out]) == 2
    assert capsys.readouterr().err == "error: --bins must be an integer from 1 to 10000, got 'abc'\n"
    for options in (["--projects", "0"], ["--members", "0"], ["--projects", "-3"],
                    ["--projects", "5", "--members", "1"]):
        assert run(["synth", *options, "--out", str(tmp_path / "s.csv")]) == 2
    assert "n_members must be from 5 to 100000, got 1" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_synth_rejects_a_negative_seed_naming_the_option(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run(["synth", "--seed", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be a non-negative integer, got -1\n"
    assert captured.out == ""
    assert not out.exists()


def test_count_options_at_their_limits(small_input, tmp_path, capsys):
    """--bins and --linspace accept their documented maximum and reject one
    more before anything is made from it."""
    stats_dir = tmp_path / "stats"
    argv = ["stats", str(small_input), "--bins", str(cli.MAX_BINS), "--output-dir", str(stats_dir)]
    assert run(argv) == 0
    summary = json.loads((stats_dir / "stats_summary.json").read_text())
    assert summary["contribution_pct"]["n_bins"] == cli.MAX_BINS

    # two pairs whose linkages differ, so every linspace point is a layer of three nodes
    tiny = tmp_path / "tiny.csv"
    tiny.write_text(
        "project_id,member_id,contribution_pct,project_type\n"
        "A,M1,10,IP\nB,M1,30,IP\nC,M2,50,IP\nB,M2,50,IP\n"
    )
    build_dir = tmp_path / "build"
    argv = ["build", str(tiny), "--linspace", str(cli.MAX_LAYERS), "--output-dir", str(build_dir)]
    assert run(argv) == 0
    assert len(list(build_dir.glob("layer_*.graphml"))) == cli.MAX_LAYERS
    capsys.readouterr()

    out = tmp_path / "over"
    for command, option, low, high in (
        (["stats", str(small_input)], "--bins", 1, cli.MAX_BINS),
        (["build", str(small_input), "--thresholds", "0,20"], "--bins", 1, cli.MAX_BINS),
        (["build", str(small_input)], "--linspace", 2, cli.MAX_LAYERS),
    ):
        assert run([*command, option, str(high + 1), "--output-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {option} must be an integer from {low} to {high}, got '{high + 1}'\n"
        assert captured.out == ""
        assert not out.exists()
    with pytest.raises(SystemExit):
        run(["build", "--help"])
    help_text = capsys.readouterr().out
    assert f"1 to {cli.MAX_BINS}" in help_text and f"2 to {cli.MAX_LAYERS}" in help_text
    assert f"1 to {cli.MAX_LAYERS} values" in help_text


def test_threshold_count_at_its_limit(small_input, tmp_path, capsys):
    """--thresholds takes at most cli.MAX_LAYERS values, one layer each, and
    rejects one more before anything is made from it."""
    values = ",".join(str(t) for t in range(cli.MAX_LAYERS + 1))
    assert cli._parse_thresholds(values.rpartition(",")[0]) == tuple(map(float, range(cli.MAX_LAYERS)))
    with pytest.raises(ConfigError):
        cli._parse_thresholds(values)
    out = tmp_path / "over"
    assert run(["build", str(small_input), "--thresholds", values, "--output-dir", str(out)]) == 2
    captured = capsys.readouterr()
    expected = f"--thresholds must list at most {cli.MAX_LAYERS} values, got {cli.MAX_LAYERS + 1}"
    assert captured.err == f"error: {expected}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("option, name, high", [
    ("--projects", "n_projects", synth.MAX_PROJECTS),
    ("--members", "n_members", synth.MAX_MEMBERS),
])
def test_synth_counts_above_their_limit_exit_2(tmp_path, capsys, option, name, high):
    """A synth count one above its limit is refused before anything is drawn."""
    out = tmp_path / "s.csv"
    assert run(["synth", option, str(high + 1), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    low = {"n_projects": 1, "n_members": 5}[name]  # 5: the mean team size, 4.292, rounded up
    assert captured.err == f"error: {name} must be from {low} to {high}, got {high + 1}\n"
    assert captured.out == ""
    assert not out.exists()


def test_type_filtered_build_equals_build_of_filtered_input(tmp_path):
    """--types reads the same rows as a build of the input with the other
    types' rows removed beforehand; both threshold-0 layers keep every
    co-membered pair, so both walk member teams."""
    header, *rows = GOLDEN_INPUT.read_text().splitlines(keepends=True)
    column = header.rstrip("\n").split(",").index("project_type")
    papers = [row for row in rows if row.rstrip("\n").split(",")[column] == "paper"]
    filtered = tmp_path / "paper.csv"
    filtered.write_text(header + "".join(papers))
    options = ["--thresholds", "0,25", "--dump-linkage"]
    typed_dir, filtered_dir = tmp_path / "typed", tmp_path / "filtered"
    assert run(["build", str(GOLDEN_INPUT), *options, "--types", "paper", "--output-dir", str(typed_dir)]) == 0
    assert run(["build", str(filtered), *options, "--output-dir", str(filtered_dir)]) == 0

    def artifacts(out_dir):
        return {p.name: p.read_bytes() for p in out_dir.iterdir() if p.name != "manifest.json"}

    typed = artifacts(typed_dir)
    assert "layer_00_t0.graphml" in typed and typed == artifacts(filtered_dir)


def test_input_errors_exit_1(tmp_path, capsys):
    assert run(["build", "/missing.csv", "--thresholds", "0,20"]) == 1

    empty = tmp_path / "empty.csv"
    empty.write_text("project_id,member_id,contribution_pct,project_type\n")
    assert run(["build", str(empty), "--thresholds", "0,20", "--output-dir", str(tmp_path / "o")]) == 1

    # no co-membered pairs: linspace cannot derive a range
    disjoint = tmp_path / "disjoint.csv"
    disjoint.write_text(
        "project_id,member_id,contribution_pct,project_type\nP1,M1,100,IP\nP2,M2,100,IP\n"
    )
    assert run(["build", str(disjoint), "--linspace", "4", "--output-dir", str(tmp_path / "p")]) == 1

    repeated = tmp_path / "repeated.csv"
    repeated.write_text(
        "project_id,member_id,contribution_pct,project_type,project_id\nP1,M1,100,IP,P1\n"
    )
    capsys.readouterr()
    assert run(["ingest", str(repeated)]) == 1
    assert "header repeats column project_id" in capsys.readouterr().err


def test_strict_flag_propagates(tmp_path, capsys):
    over = tmp_path / "over.csv"
    over.write_text(OVER_CSV)
    assert run(["ingest", str(over)]) == 0
    assert capsys.readouterr().err == "warning: " + OVER_MESSAGE
    assert run(["ingest", str(over), "--strict"]) == 1
    assert capsys.readouterr().err == "error: " + OVER_MESSAGE
    assert run(["build", str(over), "--thresholds", "0,50", "--output-dir", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().err == "warning: " + OVER_MESSAGE
    assert run(["build", str(over), "--thresholds", "0,50", "--strict", "--output-dir", str(tmp_path / "b")]) == 1
    assert capsys.readouterr().err == "error: " + OVER_MESSAGE
    assert not (tmp_path / "b").exists()


def test_over_limit_notice_under_warnings_as_errors(tmp_path):
    over = tmp_path / "over.csv"
    over.write_text(OVER_CSV)

    def build(python_options, out, *options):
        argv = ["build", str(over), "--thresholds", "0,50", "--output-dir", str(tmp_path / out)]
        return subprocess.run(
            [sys.executable, *python_options, "-m", "collabnet.cli", *argv, *options],
            env=_child_env(), capture_output=True, text=True, timeout=120,
        )

    plain, loud = build([], "plain"), build(["-W", "error"], "loud")
    assert loud.returncode == plain.returncode == 0, loud.stderr
    assert loud.stderr == plain.stderr == "warning: " + OVER_MESSAGE
    assert loud.stdout == plain.stdout.replace("plain", "loud")
    outputs = [{p.name: p.read_bytes() for p in (tmp_path / out).iterdir()} for out in ("plain", "loud")]
    assert outputs[0] == outputs[1]

    strict = build(["-W", "error"], "strict", "--strict")
    assert strict.returncode == 1
    assert strict.stderr == "error: " + OVER_MESSAGE
    assert not (tmp_path / "strict").exists()


def test_strict_ingest_accepts_a_total_of_exactly_the_limit(tmp_path, capsys):
    assert run(["ingest", str(EXACT_LIMIT_INPUT), "--strict"]) == 0
    assert capsys.readouterr().err == ""
    over = tmp_path / "over.csv"  # one ten-thousandth more
    over.write_text(EXACT_LIMIT_INPUT.read_text().replace("74.6723", "74.6724"))
    assert run(["ingest", str(over), "--strict"]) == 1
    assert capsys.readouterr().err == "error: project P1 contributions sum to 100.5001\n"


@pytest.mark.parametrize(
    "thresholds, message",
    [
        ((20.0, 10.0), "strictly increasing"),
        ((50.0, 50.0000001), "share the label t50"),
        ((0.0, float("inf")), "not finite"),
        ((0.0, 1e300), "too large to name a file"),
        # layer 100's name is a byte longer than layer 99's, which is 255 bytes
        ((*range(100), 1e236), "name would be 256 bytes"),
    ],
)
def test_runconfig_rejects_a_bad_sweep_before_reading(thresholds, message, tmp_path):
    missing = tmp_path / "missing.csv"  # a read would fail with OSError instead
    with pytest.raises(ConfigError, match=message):
        RunConfig(input_path=str(missing), output_dir=tmp_path / "out", thresholds=thresholds)


def test_a_threshold_label_may_fill_the_longest_layer_file_name(small_input, tmp_path, capsys):
    """A label of 237 characters makes layer_01_t<label>.graphml 255 bytes:
    it builds, and one of 238 exits 2 before the input is read. (1e237 is a
    float below 10**237, so its label has 237 characters too.)"""
    out_dir = tmp_path / "out"
    assert run(["build", str(small_input), "--thresholds", "0,1e236", "--output-dir", str(out_dir)]) == 0
    name = f"layer_01_t{layers.threshold_label(1e236)}.graphml"
    assert len(name) == 255
    assert (out_dir / name).is_file()
    capsys.readouterr()
    over = tmp_path / "over"
    argv = ["build", str(tmp_path / "missing.csv"), "--thresholds", "0,2e237", "--output-dir", str(over)]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: threshold 2e+237 is too large to name a file:"
        " its layer file name would be 256 bytes, over 255\n"
    )
    assert not over.exists()
    json_dir = tmp_path / "json"  # the same label names a 253-byte JSON file
    argv = ["build", str(small_input), "--thresholds", "0,2e237", "--format", "json"]
    assert run([*argv, "--output-dir", str(json_dir)]) == 0
    assert (json_dir / f"layer_01_t{layers.threshold_label(2e237)}.json").is_file()


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(input_path="x", output_dir=Path("y"))  # no threshold source
    with pytest.raises(ConfigError):
        RunConfig(input_path="x", output_dir=Path("y"), thresholds=(0.0,), linspace=4)
    with pytest.raises(ConfigError):
        RunConfig(input_path="x", output_dir=Path("y"), linspace=1)
    with pytest.raises(ConfigError):
        RunConfig(input_path="x", output_dir=Path("y"), thresholds=(0.0,), type_filter=frozenset())
    # the thresholds are kept as the sweep normalizes them
    config = RunConfig(input_path="x", output_dir=Path("y"), thresholds=[-0.0, 20])
    assert config.thresholds == (0.0, 20.0) and str(config.thresholds[0]) == "0.0"


@pytest.mark.parametrize(
    "bound, low, high",
    [
        ("thresholds", tuple(map(float, range(1000))), tuple(map(float, range(1001)))),
        ("linspace", 1000, 1001),
        ("n_bins", 1, 0),
        ("n_bins", 10_000, 10_001),
    ],
)
def test_runconfig_holds_library_callers_to_the_cli_bounds(bound, low, high, tmp_path):
    # a config is checked when it is made, before any layer is built
    source = {"thresholds": (0.0,)} if bound == "n_bins" else {}
    RunConfig(input_path="x", output_dir=tmp_path, **source, **{bound: low})
    with pytest.raises(ConfigError, match=bound):
        RunConfig(input_path="x", output_dir=tmp_path, **source, **{bound: high})


def test_ingest_lenient_messages_match_the_recorded_stderr(capsys):
    assert run(["ingest", str(MALFORMED_INPUT), "--lenient"]) == 0
    captured = capsys.readouterr()
    assert captured.err == MALFORMED_STDERR.read_text("utf-8")
    assert captured.out.splitlines()[:3] == ["records: 6", "projects: 3", "members: 4"]
    # strict row checks stop at the first skipped row, with its message
    assert run(["ingest", str(MALFORMED_INPUT)]) == 1
    first = captured.err.splitlines()[0].removeprefix("skipped ")
    assert capsys.readouterr().err == f"error: {first}\n"


def test_failed_write_leaves_no_partial_outputs(small_input, tmp_path, monkeypatch):
    out_dir = tmp_path / "out"
    config = RunConfig(
        input_path=str(small_input),
        output_dir=out_dir,
        thresholds=(0.0, 50.0),
        export_format=ExportFormat.JSONGRAPH,
    )
    real_write = Path.write_bytes
    calls = {"n": 0}

    def flaky_write(self, data):
        calls["n"] += 1
        if calls["n"] == 3:
            raise OSError("disk full")
        return real_write(self, data)

    monkeypatch.setattr(Path, "write_bytes", flaky_write)
    with pytest.raises(OSError):
        run_pipeline(config)
    assert not out_dir.exists()  # the run made it, and leaves nothing in it


def _fail_after_first_write(monkeypatch):
    """Make the stage after the first layer's export raise."""

    def broken(reports):
        raise ValueError("metrics failed")

    monkeypatch.setattr(metrics, "reports_to_csv_bytes", broken)


def test_failed_run_removes_the_directories_it_made(small_input, tmp_path, monkeypatch):
    out_dir = tmp_path / "new" / "out"
    config = RunConfig(input_path=str(small_input), output_dir=out_dir, thresholds=(0.0, 50.0))
    _fail_after_first_write(monkeypatch)
    with pytest.raises(ValueError, match="metrics failed"):
        run_pipeline(config)
    assert not (tmp_path / "new").exists()


def test_a_run_that_fails_before_its_first_write_makes_nothing(small_input, tmp_path, monkeypatch):
    out_dir = tmp_path / "new" / "out"
    config = RunConfig(input_path=str(small_input), output_dir=out_dir, thresholds=(0.0, 50.0))

    def broken(records, n_bins):
        raise ValueError("stats failed")

    monkeypatch.setattr(cli, "_stats_artifacts", broken)
    with pytest.raises(ValueError, match="stats failed"):
        run_pipeline(config)
    assert not (tmp_path / "new").exists()


def test_failed_cleanup_removes_every_other_file_and_raises_the_runs_error(
    small_input, tmp_path, monkeypatch
):
    """The refusal is made by wrapping ``os.unlink``, which ``shutil.rmtree``
    calls, with the file's name and its directory's descriptor, for each
    file."""
    out_dir = tmp_path / "new" / "dir"
    config = RunConfig(input_path=str(small_input), output_dir=out_dir, thresholds=(0.0, 20.0, 40.0))

    def disk_full(self):
        raise OSError("disk full")

    real_unlink, refused = os.unlink, []

    def refuse_once(path, *, dir_fd=None):
        if not refused:
            refused.append(path)
            raise PermissionError(13, "Permission denied", path)
        return real_unlink(path, dir_fd=dir_fd)

    monkeypatch.setattr(cli._Artifacts, "_commit", disk_full)
    monkeypatch.setattr(os, "unlink", refuse_once)
    written = _record_writes(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        run_pipeline(config)
    # the refused file, one the run staged, keeps the directories it is in,
    # and nothing else stays
    [stage] = out_dir.glob(".collabnet.*.tmp")
    assert refused[0] in _staged(out_dir, written)
    assert sorted((tmp_path / "new").rglob("*")) == [out_dir, stage, stage / refused[0]]


def test_failed_run_keeps_an_existing_directory(small_input, tmp_path, monkeypatch):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_bytes(b"kept")
    (out_dir / "empty").mkdir()
    config = RunConfig(input_path=str(small_input), output_dir=out_dir, thresholds=(0.0, 50.0))
    _fail_after_first_write(monkeypatch)
    with pytest.raises(ValueError, match="metrics failed"):
        run_pipeline(config)
    assert sorted(p.name for p in out_dir.iterdir()) == ["empty", "notes.txt"]
    assert (out_dir / "notes.txt").read_bytes() == b"kept"

    empty_dir = tmp_path / "empty"  # an empty directory that was there stays
    empty_dir.mkdir()
    with pytest.raises(ValueError, match="metrics failed"):
        run_pipeline(RunConfig(input_path=str(small_input), output_dir=empty_dir, thresholds=(0.0,)))
    assert list(empty_dir.iterdir()) == []


def test_stats_refuses_a_build_directory(small_input, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run(["build", str(small_input), "--thresholds", "0,50", "--output-dir", str(out_dir)]) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    capsys.readouterr()

    assert run(["stats", str(small_input), "--bins", "5", "--output-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert str(out_dir) in captured.err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
    for name, digest in json.loads(before["manifest.json"])["artifacts"].items():
        assert hashlib.sha256(before[name]).hexdigest() == digest


def test_failed_stats_write_keeps_previous_outputs(small_input, tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "stats"
    argv = ["stats", str(small_input), "--output-dir", str(out_dir)]
    assert run(argv) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(before) == 3
    capsys.readouterr()

    other = tmp_path / "other.csv"
    other.write_bytes(generate_csv_bytes(SynthConfig(seed=12, n_projects=50, n_members=48)))
    real_write = Path.write_bytes
    calls = {"n": 0}

    def flaky_write(self, data):
        calls["n"] += 1
        if calls["n"] == 2:
            raise OSError("disk full")
        return real_write(self, data)

    monkeypatch.setattr(Path, "write_bytes", flaky_write)
    assert run(["stats", str(other), "--output-dir", str(out_dir)]) == 1
    assert calls["n"] == 2
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
    assert "wrote" not in capsys.readouterr().out


def test_failed_rebuild_keeps_previous_outputs(small_input, tmp_path, monkeypatch):
    out_dir = tmp_path / "out"
    argv = ["build", str(small_input), "--thresholds", "0,50", "--output-dir", str(out_dir)]
    assert run(argv) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert "layer_00_t0.graphml" in before and "layer_01_t50.graphml" in before

    real_write = Path.write_bytes
    calls = {"n": 0}

    def flaky_write(self, data):
        calls["n"] += 1
        if calls["n"] == 3:
            raise OSError("disk full")
        return real_write(self, data)

    monkeypatch.setattr(Path, "write_bytes", flaky_write)
    assert run(argv) == 1
    assert calls["n"] == 3
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_negative_zero_threshold_is_threshold_zero(small_input, tmp_path):
    dirs = {text: tmp_path / f"out{i}" for i, text in enumerate(("-0,20", "0,20", "-0.0,20"))}
    for text, out_dir in dirs.items():
        assert run(["build", str(small_input), f"--thresholds={text}", "--output-dir", str(out_dir)]) == 0
    outputs = [{p.name: p.read_bytes() for p in out_dir.iterdir()} for out_dir in dirs.values()]
    assert "layer_00_t0.graphml" in outputs[0]
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0]["manifest.json"])["config"]["thresholds"] == [0.0, 20.0]


@pytest.mark.parametrize(
    ("text", "first"),
    [("-0,20", "layer_00_t0"), ("-5,20", "layer_00_t-5"), ("-0.0000001", "layer_00_t0")],
)
def test_negative_threshold_list_as_separate_argument(small_input, tmp_path, text, first):
    forms = {
        "joined": [f"--thresholds={text}"],
        "separate": ["--thresholds", text],
        "abbreviated": ["--thresh", text],
    }
    outputs = []
    for form, threshold_args in forms.items():
        out_dir = tmp_path / form
        assert run(["build", str(small_input), *threshold_args, "--output-dir", str(out_dir)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert outputs[0] == outputs[1] == outputs[2]
    graph_id = first.removeprefix("layer_00_")  # a label that rounds to zero is t0, not t-0
    assert f'<graph id="{graph_id}"' in outputs[0][f"{first}.graphml"].decode()


def _child_env() -> dict[str, str]:
    """The environment for a child Python that imports collabnet from this tree."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_out_heavy_modules():
    heavy = ["scipy", "xml.sax", "urllib.request", "concurrent.futures", "multiprocessing"]
    heavy.append("collabnet.synth")
    code = f"import sys, collabnet.cli; print([m for m in {heavy!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_entry_freezes_the_import_heap_then_exits_with_main_status():
    code = "import gc, collabnet.cli as cli; cli.main = lambda: print(gc.get_freeze_count() > 0) or 3; cli.entry()"
    result = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout, result.stderr) == (3, "True\n", "")


# every name the package exported before it loaded its modules on first use
_PACKAGE_NAMES = {
    "ingest": ["ProjectType", "RecordTable", "aggregate", "filter_by_type", "parse_records"],
    "linkage": ["LinkageTable", "build_linkage_table"],
    "layers": [
        "NetworkLayer",
        "ThresholdSweep",
        "build_layer",
        "build_layer_stack",
        "make_sweep_explicit",
        "make_sweep_linspace",
    ],
    "metrics": ["LayerMetricsReport", "report"],
    "stats": ["Feature", "FeatureSummary", "summarize"],
    "synth": ["SynthConfig", "generate"],
}


def test_package_loads_synth_on_first_use():
    code = f"""
import importlib, sys, collabnet
assert not [m for m in sys.modules if m == "numpy" or m.startswith("collabnet.")], sys.modules
names = {_PACKAGE_NAMES!r}
every = {{name for listed in names.values() for name in listed}} | {{"synth"}}
assert sorted(collabnet.__all__) == sorted(every), collabnet.__all__
assert every <= set(dir(collabnet))
star = {{}}
exec("from collabnet import *", star)
assert every <= star.keys(), every - star.keys()
for module, listed in names.items():
    loaded = importlib.import_module(f"collabnet.{{module}}")
    assert all(getattr(collabnet, name) is getattr(loaded, name) for name in listed), module
    assert star.get(module, loaded) is loaded
assert collabnet.synth is sys.modules["collabnet.synth"]
try:
    collabnet.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'collabnet' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("collabnet.no_such_name resolved")
"""
    result = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_a_library_import_and_an_in_process_build_leave_the_environment_alone(small_input, tmp_path):
    """Only a CLI process asks for one BLAS thread: importing the package
    loads no numpy, and importing the CLI, main() in process and entry()
    after an import set nothing in ``os.environ``."""
    code = f"""
import os, sys
before = dict(os.environ)
import collabnet
assert "numpy" not in sys.modules
import collabnet.cli as cli
argv = ["build", {str(small_input)!r}, "--thresholds", "0,20", "--output-dir", {str(tmp_path)!r}]
assert cli.main(argv) == 0
cli.main = lambda: 0 if dict(os.environ) == before else 7
cli.entry()
"""
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stderr) == (0, "")


# imported by a child Python at start-up: at exit, it prints the process's OS
# thread count (- without /proc), read once, and its OPENBLAS_NUM_THREADS. A
# build starts no thread, so any thread but the main one is still alive there:
# OpenBLAS's, which never end, or one the build should not have started
_EXIT_PROBE = """
import atexit, os, sys

def _probe():
    threads = "-"
    if os.path.exists("/proc/self/status"):
        with open("/proc/self/status") as status:
            threads = next(line.split()[1] for line in status if line.startswith("Threads:"))
    print(threads, os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)

atexit.register(_probe)
"""


def _script_target() -> str:
    """The ``collabnet`` script's entry point, as pyproject.toml declares it."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    return re.search(r'^collabnet = "(.+)"$', text, re.MULTILINE)[1]


@pytest.mark.parametrize("caller", [None, "2"], ids=["unset", "caller-set"])
def test_both_process_entries_ask_for_one_blas_thread_unless_the_caller_chose(
    small_input, tmp_path, caller
):
    """``python -m collabnet.cli`` and the script's target, which loads no
    numpy, end a build with one OS thread and ``OPENBLAS_NUM_THREADS=1``,
    keep a count the caller set, and write the bytes of an in-process build."""
    (tmp_path / "probe").mkdir()
    (tmp_path / "probe" / "sitecustomize.py").write_text(_EXIT_PROBE)
    env = _child_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path / "probe"), env["PYTHONPATH"]])
    env.pop("OPENBLAS_NUM_THREADS", None)
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    script = (
        "import importlib.metadata, sys\n"
        f"main = importlib.metadata.EntryPoint('collabnet', {_script_target()!r}, 'console_scripts').load()\n"
        "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
        "sys.exit(main())\n"
    )
    argv = ["build", str(small_input), "--thresholds", "0,20,40", "--output-dir"]
    assert run([*argv, str(tmp_path / "in_process")]) == 0
    expected = {p.name: p.read_bytes() for p in (tmp_path / "in_process").iterdir()}
    for name, entry in {"module": ["-m", "collabnet.cli"], "script": ["-c", script]}.items():
        result = subprocess.run(
            [sys.executable, *entry, *argv, str(tmp_path / name)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, (name, result.stderr)
        threads, blas = result.stderr.split()
        assert blas == (caller or "1"), name
        if caller is None and Path("/proc/self/status").exists():
            assert threads == "1", name
        assert {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()} == expected, name


@pytest.mark.parametrize("ignored", [False, True])
def test_entry_turns_sigterm_into_an_exception_unless_the_parent_ignores_it(ignored):
    ignore = "signal.signal(signal.SIGTERM, signal.SIG_IGN); " if ignored else ""
    code = (
        f"import signal, collabnet.cli as cli; {ignore}"
        "cli.main = lambda: print(signal.getsignal(signal.SIGTERM) is cli._terminate) or 0; "
        "cli.entry()"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, f"{not ignored}\n", "")


def test_main_in_process_installs_no_signal_handler(small_input, tmp_path):
    handlers = signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGINT)
    argv = ["build", str(small_input), "--thresholds", "0,50", "--output-dir", str(tmp_path)]
    assert run(argv) == 0
    assert (signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGINT)) == handlers


@pytest.fixture(scope="module")
def fine_sweep_input(tmp_path_factory):
    """The default-size synth table: a 100-point sweep of it with a linkage
    dump writes the dump first, once the stack is built, and then spends
    seconds on its layers, time enough to signal the run mid-build."""
    path = tmp_path_factory.mktemp("fine_sweep") / "input.csv"
    path.write_bytes(generate_csv_bytes(SynthConfig(seed=0)))
    return path


def _sigint_entry(cpus: int) -> str:
    """A child that enters the CLI on ``cpus`` CPUs, so a build of enough
    work forks its one worker on any host when ``cpus`` is 2, and none when
    it is 1. entry() handles SIGINT only when the parent did not ignore it,
    as a shell does for a background job; the child restores Python's
    handler before it enters the CLI."""
    return (
        f"import os, signal, collabnet.cli as cli; os.sched_getaffinity = lambda pid: set(range({cpus})); "
        "signal.signal(signal.SIGINT, signal.default_int_handler); cli.entry()"
    )


def _children(pid: int) -> set[int]:
    return {
        int(child)
        for path in Path(f"/proc/{pid}/task").glob("*/children")
        for child in path.read_text().split()
    }


def _gone(pid: int) -> bool:
    """No process has the pid, or only an exited one that nobody reaps."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] in "ZX"
    except (FileNotFoundError, ProcessLookupError):
        return True


def _start_fine_sweep(
    input_path: Path, out_dir: Path, cpus: int = 2, **popen
) -> tuple[subprocess.Popen, set[int]]:
    """A 100-point sweep on ``cpus`` CPUs, once it has written a file into
    its staging directory, which it makes before the fork: the child and the
    workers it forked before that write."""
    argv = ["build", str(input_path), "--linspace", "100", "--format", "json"]
    argv += ["--dump-linkage", "--output-dir", str(out_dir)]
    child = subprocess.Popen(
        [sys.executable, "-c", _sigint_entry(cpus), *argv],
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **popen,
    )
    try:
        deadline = time.monotonic() + 60
        while not any(out_dir.glob(".collabnet.*.tmp/*")):
            assert child.poll() is None, "the build ended before it wrote a staged file"
            assert time.monotonic() < deadline, "no staged file within 60 s"
            time.sleep(0.01)
        return child, _children(child.pid)
    except BaseException:
        child.kill()
        child.wait()
        raise


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads /proc")
@pytest.mark.parametrize(
    "signum, code, message, cpus",
    [
        (signal.SIGTERM, 143, "terminated", 2),
        (signal.SIGINT, 130, "interrupted", 2),
        (signal.SIGTERM, 143, "terminated", 1),
        (signal.SIGINT, 130, "interrupted", 1),
    ],
    ids=["SIGTERM", "SIGINT", "SIGTERM-one-process", "SIGINT-one-process"],
)
def test_a_signal_mid_build_removes_what_the_run_made(
    fine_sweep_input, tmp_path, signum, code, message, cpus
):
    """A signal sent once the run has written a staged file leaves no
    staged file, no directory that the run made and no worker process,
    and ends the run with one error line, no traceback, and the signal's
    exit code: on two CPUs, where the build forks its worker, and on one,
    where it stays in one process."""
    child, workers = _start_fine_sweep(fine_sweep_input, tmp_path / "sig" / "deep", cpus)
    try:
        child.send_signal(signum)
        out, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    assert (child.returncode, out, err) == (code, "", f"error: {message}\n")
    assert not (tmp_path / "sig").exists()
    assert len(workers) == cpus - 1
    assert all(_gone(pid) for pid in workers)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads /proc")
def test_two_ctrl_c_to_the_process_group_end_the_run_once(fine_sweep_input, tmp_path):
    """A terminal sends Ctrl-C to the whole process group: the worker ignores
    it, and the second one does not cut the parent's cleanup short."""
    child, workers = _start_fine_sweep(
        fine_sweep_input, tmp_path / "sig" / "deep", start_new_session=True
    )
    try:
        os.killpg(child.pid, signal.SIGINT)
        os.killpg(child.pid, signal.SIGINT)
        out, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    assert (child.returncode, out, err) == (130, "", "error: interrupted\n")
    assert not (tmp_path / "sig").exists()
    assert len(workers) == 1
    assert all(_gone(pid) for pid in workers)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads /proc")
def test_a_killed_builds_worker_stops_and_the_next_build_sweeps_its_files(
    fine_sweep_input, tmp_path
):
    """SIGKILL leaves the staging directory, with the files of the parent
    and of its worker; the worker stops at its next layer and lets go of the
    directory's lock, and the next build into the directory removes the whole
    staging directory, the linkage dump, which it does not write, too."""
    out_dir = tmp_path / "out"
    child, workers = _start_fine_sweep(fine_sweep_input, out_dir)
    child.kill()
    child.communicate(timeout=60)
    deadline = time.monotonic() + 60
    while not all(_gone(pid) for pid in workers):
        assert time.monotonic() < deadline, "the worker outlived its parent by 60 s"
        time.sleep(0.05)
    [stage] = out_dir.glob(".*.tmp")  # the parent's and the worker's files
    _staged(out_dir, [stage / "linkage.csv"])
    assert (stage / "linkage.csv").exists()
    argv = ["build", str(GOLDEN_INPUT), "--thresholds", "0,50"]
    assert run([*argv, "--output-dir", str(out_dir)]) == 0
    assert not any(out_dir.glob(".*.tmp"))


def _stale_stage(out_dir: Path) -> Path:
    """A staging directory that a killed run left in ``out_dir``, with files
    that the build in the tests below does not write."""
    stage = out_dir / ".collabnet.k3_x9q2a.tmp"  # as tempfile.mkdtemp names it
    stage.mkdir(parents=True)
    for name in ("linkage.csv", "layer_03_t-2.5.dot"):  # of another sweep and format
        (stage / name).write_text("partial")
    return stage


def test_a_build_removes_only_collabnets_temporary_files(tmp_path):
    """With no other run in the directory, a build removes every other run's
    staging directory, whatever its name holds, the test's own pid too, and
    whatever files it holds; no other name."""
    out_dir = tmp_path / "out"
    argv = ["build", str(GOLDEN_INPUT), "--thresholds", "0,50", "--output-dir", str(out_dir)]
    assert run(argv) == 0
    _stale_stage(out_dir)
    own = out_dir / f".collabnet.{os.getpid()}.tmp"
    own.mkdir()
    (own / "linkage.csv").write_text("partial")
    (out_dir / ".collabnet.tmp").mkdir()  # no name between the dots
    kept_files = [
        *[".x.41.tmp", ".x.1.tmp", ".notes.txt.41.tmp", "metrics.csv.41.tmp", ".metrics.csv.tmp"],
        ".metrics.csv.41.tmp",  # an earlier version's temporary file
        ".collabnet.7.tmp",  # a file, not a directory
    ]
    for name in kept_files:
        (out_dir / name).write_text("partial")
    assert run(argv) == 0
    assert not own.exists()
    left = sorted(p.name for p in out_dir.iterdir() if p.name.endswith(".tmp"))
    assert left == sorted([*kept_files, ".collabnet.tmp"])


def test_a_build_sweeps_nothing_while_another_run_holds_the_directory(tmp_path):
    """A run holds a shared flock on its directory while it writes there,
    which crosses pid namespaces: a build that cannot take it exclusively
    leaves every other staging directory, and the next one removes them."""
    out_dir = tmp_path / "out"
    stage = _stale_stage(out_dir)
    argv = ["build", str(GOLDEN_INPUT), "--thresholds", "0,50", "--output-dir", str(out_dir)]
    held = os.open(out_dir, os.O_RDONLY | os.O_DIRECTORY)
    try:
        fcntl.flock(held, fcntl.LOCK_SH)  # as another run's process would
        assert run(argv) == 0
        assert sorted(p.name for p in stage.iterdir()) == ["layer_03_t-2.5.dot", "linkage.csv"]
    finally:
        os.close(held)
    assert run(argv) == 0
    assert not stage.exists()


def _entry_code(cpus: int, prelude: str = "") -> str:
    """A child that enters the CLI as ``python -m collabnet.cli`` does, on
    ``cpus`` CPUs, and prints to stderr how many workers it forked."""
    return (
        "import atexit, os, runpy, sys\n"
        f"os.sched_getaffinity = lambda pid: set(range({cpus}))\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "atexit.register(lambda: print(f'forked {len(forks)}', file=sys.stderr))\n"
        f"{prelude}"
        "runpy.run_module('collabnet.cli', run_name='__main__', alter_sys=True)\n"
    )


@pytest.fixture(scope="module")
def double_input(tmp_path_factory):
    """The 2x synth table that the fine_sweep_2x benchmark builds."""
    path = tmp_path_factory.mktemp("double") / "input.csv"
    path.write_bytes(generate_csv_bytes(SynthConfig(seed=1, n_projects=4600, n_members=2000)))
    return path


_TWENTY_UP = ",".join(str(t) for t in range(20, 101, 5))


@pytest.mark.parametrize(
    "table, cpus, options",
    [
        ("single", 2, ["--linspace", "30"]),
        ("single", 2, ["--linspace", "30", "--format", "json", "--dump-linkage"]),
        ("single", 3, ["--linspace", "30", "--format", "dot", "--no-include-isolated"]),
        ("single", 2, ["--linspace", "30", "--types", "paper", "--format", "json"]),
        ("double", 2, ["--thresholds", _TWENTY_UP, "--format", "json", "--dump-linkage"]),
        ("double", 2, ["--thresholds", "0,20,40,60,80,100", "--no-include-isolated"]),
    ],
    ids=["graphml", "json-linkage", "dot-3cpus", "types", "fine-sweep-2x", "graphml-2x"],
)
def test_a_forked_build_writes_the_bytes_of_one_process(
    fine_sweep_input, double_input, tmp_path, table, cpus, options
):
    """The process entry splits the layers with one forked worker;
    ``main()`` in process builds them all itself: both write the same files."""
    input_path = {"single": fine_sweep_input, "double": double_input}[table]
    argv = ["build", str(input_path), *options, "--output-dir"]
    result = subprocess.run(
        [sys.executable, "-c", _entry_code(cpus), *argv, str(tmp_path / "forked")],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "forked 1\n")
    assert run([*argv, str(tmp_path / "single")]) == 0
    forked = {p.name: p.read_bytes() for p in (tmp_path / "forked").iterdir()}
    assert forked == {p.name: p.read_bytes() for p in (tmp_path / "single").iterdir()}


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads /proc")
@pytest.mark.parametrize(
    "failure, message",
    [
        ("raise MemoryError", "out of memory while building the output"),
        ("raise OSError(28, 'No space left on device')", "[Errno 28] No space left on device"),
        ("os.kill(os.getpid(), 9)", "a layer worker process was killed by signal 9 before it sent its results"),
    ],
    ids=["MemoryError", "OSError", "killed"],
)
def test_a_failing_worker_ends_the_build_as_one_process_would(
    fine_sweep_input, tmp_path, failure, message
):
    """The worker fails on its first layer: the parent takes no layer once
    the worker has ended, reports it as one error line with exit 1, and
    leaves no directory and no process."""
    calls = tmp_path / "exports.txt"
    prelude = (
        "from collabnet import export\n"
        "parent, real = os.getpid(), export.export_layer\n"
        "def failing(*args, **kwargs):\n"
        f"    open({str(calls)!r}, 'a').write(f'{{os.getpid()}}\\n')\n"
        "    if os.getpid() != parent:\n"
        f"        {failure}\n"
        "    return real(*args, **kwargs)\n"
        "export.export_layer = failing\n"
        f"open({str(calls)!r}, 'w').write(f'{{parent}}\\n')\n"
    )
    out_dir = tmp_path / "new" / "out"
    argv = ["build", str(fine_sweep_input), "--linspace", "30", "--output-dir", str(out_dir)]
    result = subprocess.run(
        [sys.executable, "-c", _entry_code(2, prelude), *argv],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"error: {message}\nforked 1\n"
    assert not (tmp_path / "new").exists()
    parent, *exports = [int(pid) for pid in calls.read_text().split()]
    workers = set(exports) - {parent}
    assert len(workers) == 1 and _gone(workers.pop())
    assert exports.count(parent) <= 5


def test_a_free_process_takes_the_next_layer(fine_sweep_input, tmp_path):
    """The worker stalls on its first layer for 2 s: the parent takes and
    exports every other layer meanwhile, and the files are those of one
    process."""
    calls = tmp_path / "exports.txt"
    prelude = (
        "import time\n"
        "from collabnet import export\n"
        "parent, real = os.getpid(), export.export_layer\n"
        "def stalling(*args, **kwargs):\n"
        f"    open({str(calls)!r}, 'a').write(f'{{os.getpid()}}\\n')\n"
        "    if os.getpid() != parent:\n"
        "        time.sleep(2)\n"
        "    return real(*args, **kwargs)\n"
        "export.export_layer = stalling\n"
        f"open({str(calls)!r}, 'w').write(f'{{parent}}\\n')\n"
    )
    argv = ["build", str(fine_sweep_input), "--linspace", "30", "--output-dir"]
    result = subprocess.run(
        [sys.executable, "-c", _entry_code(2, prelude), *argv, str(tmp_path / "forked")],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "forked 1\n")
    parent, *exports = [int(pid) for pid in calls.read_text().split()]
    assert (len(exports), exports.count(parent)) == (30, 29)
    assert run([*argv, str(tmp_path / "single")]) == 0
    forked = {p.name: p.read_bytes() for p in (tmp_path / "forked").iterdir()}
    assert forked == {p.name: p.read_bytes() for p in (tmp_path / "single").iterdir()}


def test_main_in_process_stays_in_one_process(fine_sweep_input, tmp_path, monkeypatch):
    """Neither forks nor changes an affinity mask."""

    def no_fork():
        raise AssertionError("main() in process forked")

    def no_pin(pid, cpus):
        raise AssertionError("main() in process changed an affinity mask")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_setaffinity", no_pin, raising=False)
    argv = ["build", str(fine_sweep_input), "--linspace", "30", "--output-dir", str(tmp_path)]
    assert run(argv) == 0


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs a real affinity mask of two or more CPUs",
)
def test_the_worker_leaves_the_cpu_its_parent_was_on(double_input, tmp_path):
    """The fine_sweep_2x build, entered on this host's own CPUs: after the
    fork the parent runs on the first half of the mask and the worker on
    the rest, so the two never share a CPU."""
    log = tmp_path / "masks.txt"
    code = (
        "import atexit, os, collabnet.cli as cli\n"
        "from collabnet import export\n"
        f"log = {str(log)!r}\n"
        "def note(kind):\n"
        "    open(log, 'a').write(f'{kind} {os.getpid()} {sorted(os.sched_getaffinity(0))}\\n')\n"
        "real = export.export_layer\n"
        "def exporting(*args, **kwargs):\n"
        "    note('export')\n"
        "    return real(*args, **kwargs)\n"
        "export.export_layer = exporting\n"
        "atexit.register(note, 'exit')\n"
        "cli.entry()\n"
    )
    argv = ["build", str(double_input), "--thresholds", _TWENTY_UP, "--format", "json"]
    argv += ["--dump-linkage", "--output-dir", str(tmp_path / "out")]
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")
    lines = [line.split(" ", 2) for line in log.read_text().splitlines()]
    (parent,) = {pid for kind, pid, _ in lines if kind == "exit"}
    masks = {(pid == parent, value) for _, pid, value in lines}
    mask = sorted(os.sched_getaffinity(0))
    half = len(mask) // 2
    assert masks == {(True, str(mask[:half])), (False, str(mask[half:]))}


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads /proc")
@pytest.mark.parametrize(
    "refusal",
    ["OSError(22, 'Invalid argument')", "ValueError('bad mask')"],
    ids=["OSError", "ValueError"],
)
def test_a_refused_pin_leaves_the_build_as_it_was(fine_sweep_input, tmp_path, refusal):
    """Both processes' ``sched_setaffinity`` raises: each keeps its mask,
    and the build exits 0 with the files of one process."""
    calls = tmp_path / "pins.txt"
    prelude = (
        f"open({str(calls)!r}, 'w').write(f'{{os.getpid()}}\\n')\n"
        "def refused(pid, cpus):\n"
        f"    open({str(calls)!r}, 'a').write(f'{{os.getpid()}}\\n')\n"
        f"    raise {refusal}\n"
        "os.sched_setaffinity = refused\n"
    )
    argv = ["build", str(fine_sweep_input), "--linspace", "30", "--output-dir"]
    result = subprocess.run(
        [sys.executable, "-c", _entry_code(2, prelude), *argv, str(tmp_path / "forked")],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "forked 1\n")
    parent, *pins = [int(pid) for pid in calls.read_text().split()]
    assert len(pins) == 2 and pins.count(parent) == 1
    assert run([*argv, str(tmp_path / "single")]) == 0
    forked = {p.name: p.read_bytes() for p in (tmp_path / "forked").iterdir()}
    assert forked == {p.name: p.read_bytes() for p in (tmp_path / "single").iterdir()}


def test_no_process_of_a_forked_build_starts_a_thread(fine_sweep_input, tmp_path):
    """Neither the parent nor its worker starts a thread, so none is alive
    at the fork: each process writes and hashes its files itself."""
    starts = tmp_path / "starts.txt"
    prelude = (
        "import threading\n"
        "start = threading.Thread.start\n"
        "def counted(thread):\n"
        f"    open({str(starts)!r}, 'a').write(f'{{os.getpid()}}\\n')\n"
        "    return start(thread)\n"
        "threading.Thread.start = counted\n"
    )
    argv = ["build", str(fine_sweep_input), "--linspace", "30", "--dump-linkage", "--output-dir"]
    result = subprocess.run(
        [sys.executable, "-c", _entry_code(2, prelude), *argv, str(tmp_path / "forked")],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "forked 1\n")
    assert not starts.exists()


def _stack(edges: list[int], pairs: int) -> list:
    """Stand-ins for the layers of a stack of ``pairs`` shared pairs."""
    shared = SimpleNamespace(a=np.zeros(pairs, np.int64))
    return [SimpleNamespace(n_edges=n, pairs=shared) for n in edges]


@pytest.mark.parametrize(
    "fork, edges, pairs, forks",
    [
        # the layers' edges must reach twice 50,000, and twice one per shared pair
        (True, [40_000, 30_000, 20_000, 10_000, 0], 40_000, True),
        (True, [60_000, 30_000, 20_000, 10_000], 60_000, True),
        (True, [50_000, 50_000], 50_000, True),
        (True, [50_000, 49_999], 50_000, False),
        (True, [100_000, 90_000, 90_000], 150_000, False),
        (True, [1_000_000], 1_000_000, False),
        # entry() did not let the build fork
        (False, [40_000, 30_000, 20_000, 10_000, 0], 40_000, False),
    ],
    ids=["twice-units", "twice-pairs", "twice-both", "below-units", "below-pairs", "one-layer", "no-fork"],
)
def test_a_build_forks_only_for_work_worth_two_processes(monkeypatch, fork, edges, pairs, forks):
    monkeypatch.setattr(cli, "_fork", fork)
    assert cli._forks(_stack(edges, pairs)) is forks


@pytest.mark.parametrize("ignored", [False, True])
def test_entry_interrupts_once_unless_the_parent_ignores_sigint(ignored):
    ignore = "signal.signal(signal.SIGINT, signal.SIG_IGN)" if ignored else "0"
    code = (
        f"import signal, collabnet.cli as cli; {ignore}\n"
        "def main():\n"
        "    if signal.getsignal(signal.SIGINT) is not cli._interrupt:\n"
        "        return 5\n"
        "    try:\n"
        "        signal.raise_signal(signal.SIGINT)\n"
        "    except KeyboardInterrupt:\n"
        "        signal.raise_signal(signal.SIGINT)  # ignored now\n"
        "        return 4\n"
        "cli.main = main\n"
        "cli.entry()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout, result.stderr) == (5 if ignored else 4, "", "")


def test_build_frees_its_data_by_reference_counting(tmp_path):
    """A build's arrays and buffers are freed when their last reference goes,
    not left in reference cycles for the cyclic collector to find."""
    argv = ["build", str(GOLDEN_INPUT), "--thresholds", "0,25,50,75", "--dump-linkage"]
    frozen, enabled, debug = gc.get_freeze_count(), gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run([*argv, "--output-dir", str(tmp_path / "out")]) == 0
        gc.collect()
        held = [
            type(ref).__name__
            for obj in gc.garbage
            for ref in gc.get_referents(obj)
            if (isinstance(ref, np.ndarray) and ref.nbytes > 1024)
            or (isinstance(ref, (bytes, bytearray)) and len(ref) > 1024)
        ]
    finally:
        gc.garbage.clear()
        gc.set_debug(debug)
        if enabled:
            gc.enable()
    assert held == []
    assert gc.get_freeze_count() == frozen  # main() in process freezes nothing


BUILD_WRITES = 8  # 2 layers, metrics.csv/.json, 3 stats files, manifest


@pytest.mark.parametrize("failing", [1, 2, 5, BUILD_WRITES])
def test_failed_streamed_write_keeps_previous_outputs(small_input, tmp_path, monkeypatch, capsys, failing):
    out_dir = tmp_path / "out"
    argv = ["build", str(small_input), "--thresholds", "0,50", "--format", "json", "--output-dir", str(out_dir)]
    assert run(argv) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(before) == BUILD_WRITES
    capsys.readouterr()

    real_write = Path.write_bytes
    calls = {"n": 0}

    def flaky_write(self, data):
        calls["n"] += 1
        _staged(out_dir, [self])
        if calls["n"] == failing:
            real_write(self, data[: len(data) // 2])  # a partial file is left behind
            raise OSError("disk full")
        return real_write(self, data)

    monkeypatch.setattr(Path, "write_bytes", flaky_write)
    assert run([*argv[:3], "20,60", *argv[4:]]) == 1
    assert calls["n"] == failing
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
    assert "wrote" not in capsys.readouterr().out


def _record_writes(monkeypatch) -> list[Path]:
    """Record each path ``Path.write_bytes`` writes, in order."""
    real_write = Path.write_bytes
    written = []

    def recording_write(self, data):
        written.append(self)
        return real_write(self, data)

    monkeypatch.setattr(Path, "write_bytes", recording_write)
    return written


def _staged(out_dir: Path, written: list[Path]) -> list[str]:
    """The names of ``written``, which must all be in one staging directory
    in ``out_dir``."""
    [stage] = {p.parent for p in written}
    assert stage.parent == out_dir and re.fullmatch(r"\.collabnet\..+\.tmp", stage.name)
    return [p.name for p in written]


# the statistics files, which a build writes before its first layer
_STATS_FILES = ["stats_contribution_pct.csv", "stats_ic_score.csv", "stats_summary.json"]


def test_export_error_mid_build_keeps_previous_outputs(small_input, tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "out"
    argv = ["build", str(small_input), "--thresholds", "0,50", "--output-dir", str(out_dir)]
    assert run(argv) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    capsys.readouterr()

    real_export = cli.export.export_layer
    calls = []

    def failing_export(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("cannot render layer")
        return real_export(*args, **kwargs)

    monkeypatch.setattr(cli.export, "export_layer", failing_export)
    written = _record_writes(monkeypatch)
    assert run(argv) == 1
    assert "cannot render layer" in capsys.readouterr().err
    # the statistics and the first layer went to the staging directory before
    # the run ended, and the failure removed them
    assert _staged(out_dir, written) == [*_STATS_FILES, "layer_00_t0.graphml"]
    assert not any(p.exists() for p in written)
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_out_of_memory_exits_1_with_one_error_line(small_input, tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "new" / "out"
    real_export = cli.export.export_layer
    calls = []

    def exhausted_export(*args, **kwargs):  # the second layer's allocation fails
        calls.append(1)
        if len(calls) == 2:
            raise MemoryError
        return real_export(*args, **kwargs)

    monkeypatch.setattr(cli.export, "export_layer", exhausted_export)
    written = _record_writes(monkeypatch)
    argv = ["build", str(small_input), "--thresholds", "0,50", "--dump-linkage", "--output-dir", str(out_dir)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory while building the output\n"
    assert _staged(out_dir, written) == ["linkage.csv", *_STATS_FILES, "layer_00_t0.graphml"]
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("failing", [1, 2])
def test_out_of_memory_in_a_file_write_exits_1_with_one_error_line(
    small_input, tmp_path, monkeypatch, capsys, failing
):
    out_dir = tmp_path / "new" / "out"
    real_write = Path.write_bytes
    calls = {"n": 0}

    def exhausted_write(self, data):
        calls["n"] += 1
        if calls["n"] == failing:
            raise MemoryError
        return real_write(self, data)

    monkeypatch.setattr(Path, "write_bytes", exhausted_write)
    argv = ["build", str(small_input), "--thresholds", "0,50", "--output-dir", str(out_dir)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory while building the output\n"
    assert calls["n"] == failing  # no write starts after a failed one
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("failure", [None, ValueError, KeyboardInterrupt])
def test_a_run_in_process_leaves_no_thread_and_no_temporary_file(
    small_input, tmp_path, monkeypatch, failure
):
    """Whether the run ends cleanly or its second layer fails, it starts no
    thread that outlives it, leaves the collector as it was, and leaves no
    temporary file; a failed run removes the directory it made."""
    out_dir = tmp_path / "out"
    config = RunConfig(input_path=str(small_input), output_dir=out_dir, thresholds=(0.0, 50.0))
    real_export = cli.export.export_layer
    calls = []

    def export(*args, **kwargs):
        calls.append(1)
        if failure is not None and len(calls) == 2:
            raise failure("stopped")
        return real_export(*args, **kwargs)

    monkeypatch.setattr(cli.export, "export_layer", export)
    written = _record_writes(monkeypatch)
    threads = set(threading.enumerate())
    collector = gc.get_freeze_count(), gc.isenabled()
    if failure is None:
        assert [p.name for p in run_pipeline(config)][-1] == "manifest.json"
        assert len(written) == 8
    else:
        with pytest.raises(failure, match="stopped"):
            run_pipeline(config)
        assert _staged(out_dir, written) == [*_STATS_FILES, "layer_00_t0.graphml"]
        assert not out_dir.exists()
    assert set(threading.enumerate()) <= threads
    assert (gc.get_freeze_count(), gc.isenabled()) == collector
    assert not any(p.exists() for p in written)


def test_include_isolated_flag_changes_exports(small_input, tmp_path):
    kept = tmp_path / "kept"
    dropped = tmp_path / "dropped"
    run(["build", str(small_input), "--thresholds", "100", "--format", "json", "--output-dir", str(kept)])
    run(
        [
            "build",
            str(small_input),
            "--thresholds",
            "100",
            "--format",
            "json",
            "--no-include-isolated",
            "--output-dir",
            str(dropped),
        ]
    )
    full = json.loads((kept / "layer_00_t100.json").read_text())
    trimmed = json.loads((dropped / "layer_00_t100.json").read_text())
    assert len(trimmed["graph"]["nodes"]) <= len(full["graph"]["nodes"])
    touched = {e["source"] for e in full["graph"]["edges"]} | {
        e["target"] for e in full["graph"]["edges"]
    }
    assert {n["id"] for n in trimmed["graph"]["nodes"]} == touched


def test_rebuild_removes_stale_outputs_only(small_input, tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("kept")
    base = ["build", str(small_input), "--output-dir", str(out_dir)]
    assert run(base + ["--thresholds", "0,20,40,60", "--dump-linkage"]) == 0
    assert (out_dir / "layer_03_t60.graphml").exists()
    assert run(base + ["--thresholds", "0,50"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    expected = set(manifest["artifacts"]) | {"manifest.json", "notes.txt"}
    assert {p.name for p in out_dir.iterdir()} == expected
    assert "linkage.csv" not in expected and "layer_01_t50.graphml" in expected


@pytest.mark.parametrize("listed", ["ay", ["a", "y"]], ids=["string", "list"])
def test_rebuild_reads_names_only_from_a_manifest_object(small_input, tmp_path, listed):
    # collabnet writes "artifacts" as a name -> sha256 object; any other form lists nothing
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "a").write_text("kept")
    (out_dir / "y").write_text("kept")
    manifest = {"tool": {"name": "collabnet"}, "artifacts": listed}
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    assert run(["build", str(small_input), "--thresholds", "0,50", "--output-dir", str(out_dir)]) == 0
    assert (out_dir / "a").read_text() == "kept" and (out_dir / "y").read_text() == "kept"


@pytest.mark.parametrize("command", [["build", "--thresholds", "0,50"], ["stats"]], ids=["build", "stats"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
def test_output_dir_under_a_file_exit_2(small_input, tmp_path, capsys, command, below):
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out_dir = afile / below if below else afile
    before = sorted(tmp_path.iterdir())
    for source in small_input, tmp_path / "missing.csv":  # checked before the input is read
        argv = [command[0], str(source), *command[1:], "--output-dir", str(out_dir)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert str(out_dir) in captured.err
    assert sorted(tmp_path.iterdir()) == before and afile.read_text() == "kept"


def test_control_character_id_exit_1(tmp_path, capsys):
    header = "project_id,member_id,contribution_pct,project_type\n"
    bad = tmp_path / "bad.csv"
    for char, kind in (("\x01", "control character"), ("\ufffe", "noncharacter"), ("\uffff", "noncharacter")):
        bad.write_text(header + f"P{char},M1,50,IP\nP2,M1,50,IP\nP3,M1,40,IP\n", encoding="utf-8")
        out_dir = tmp_path / f"out_{ord(char)}"
        assert run(["build", str(bad), "--thresholds", "0", "--output-dir", str(out_dir)]) == 1
        assert f"row 2: {kind}" in capsys.readouterr().err
        assert not out_dir.exists()
        assert run(["build", str(bad), "--thresholds", "0", "--lenient", "--output-dir", str(out_dir)]) == 0
        assert "skipped row 2" in capsys.readouterr().err
        doc = minidom.parse(str(out_dir / "layer_00_t0.graphml"))
        assert [node.getAttribute("id") for node in doc.getElementsByTagName("node")] == ["P2", "P3"]

    out_dir = tmp_path / "out"
    accepted = tmp_path / "accepted.csv"
    accepted.write_text(header + "Projé-α,M1,50,IP\n項目,M1,50,IP\n", encoding="utf-8")
    assert run(["build", str(accepted), "--thresholds", "0", "--output-dir", str(out_dir)]) == 0
    doc = minidom.parse(str(out_dir / "layer_00_t0.graphml"))
    ids = [node.getAttribute("id") for node in doc.getElementsByTagName("node")]
    assert ids == ["Projé-α", "項目"]
