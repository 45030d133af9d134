from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from xml.dom import minidom

import pytest

from collabnet import cli, ingest, metrics, synth
from collabnet.cli import ConfigError, RunConfig, run_pipeline
from collabnet.export import ExportFormat
from collabnet.synth import SynthConfig, generate_csv_bytes

GOLDEN_INPUT = Path(__file__).parent / "data" / "golden_input.csv"
# one row per row check, a row with two faults, an unreadable row and an
# over-limit project; the CI runtime job diffs its ingest stderr too
MALFORMED_INPUT = Path(__file__).parent / "data" / "malformed_input.csv"
MALFORMED_STDERR = Path(__file__).parent / "data" / "malformed_input.stderr"
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


def test_build_and_ingest_build_no_record_rows(small_input, tmp_path, monkeypatch, capsys):
    # every stage reads the parsed columns; a record row is made only for a
    # caller that indexes or iterates the table
    def no_rows(*args):
        raise AssertionError("a ContributionRecord was built")

    monkeypatch.setattr(ingest, "ContributionRecord", no_rows)
    for types in ("ip,paper,prototype", "paper"):
        argv = ["build", str(small_input), "--thresholds", "0,50", "--types", types]
        assert run([*argv, "--output-dir", str(tmp_path / types)]) == 0
    assert run(["ingest", str(small_input)]) == 0
    assert run(["stats", str(small_input), "--output-dir", str(tmp_path / "stats")]) == 0
    assert "error" not in capsys.readouterr().err


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


def test_build_is_deterministic(small_input, tmp_path):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        assert run(
            ["build", str(small_input), "--thresholds", "0,30,60", "--format", "json", "--output-dir", str(d)]
        ) == 0
    for name in sorted(p.name for p in dirs[0].iterdir()):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


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
    assert "unreachable with max team size 1" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


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
    assert captured.err == f"error: {name} must be from 1 to {high}, got {high + 1}\n"
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


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(input_path="x", output_dir=Path("y"))  # no threshold source
    with pytest.raises(ConfigError):
        RunConfig(input_path="x", output_dir=Path("y"), thresholds=(0.0,), linspace=4)
    with pytest.raises(ConfigError):
        RunConfig(input_path="x", output_dir=Path("y"), linspace=1)
    with pytest.raises(ConfigError):
        RunConfig(input_path="x", output_dir=Path("y"), thresholds=(0.0,), type_filter=frozenset())


@pytest.mark.parametrize(
    "bound, low, high",
    [
        ("thresholds", (0.0,) * 1000, (0.0,) * 1001),
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


@pytest.mark.parametrize(("text", "first"), [("-0,20", "layer_00_t0"), ("-5,20", "layer_00_t-5")])
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
    assert f"{first}.graphml" in outputs[0]


def _child_env() -> dict[str, str]:
    """The environment for a child Python that imports collabnet from this tree."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_out_heavy_modules():
    heavy = ["scipy", "xml.sax", "urllib.request"]
    code = f"import sys, collabnet.cli; print([m for m in {heavy!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


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
        assert self.name.endswith(".tmp") and self.parent == out_dir
        if calls["n"] == failing:
            real_write(self, data[: len(data) // 2])  # a partial file is left behind
            raise OSError("disk full")
        return real_write(self, data)

    monkeypatch.setattr(Path, "write_bytes", flaky_write)
    assert run([*argv[:3], "20,60", *argv[4:]]) == 1
    assert calls["n"] == failing
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
    assert "wrote" not in capsys.readouterr().out


def test_export_error_mid_build_keeps_previous_outputs(small_input, tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "out"
    argv = ["build", str(small_input), "--thresholds", "0,50", "--output-dir", str(out_dir)]
    assert run(argv) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    capsys.readouterr()

    real_export = cli.export.export_layer
    calls = []

    def failing_export(*args, **kwargs):
        calls.append(sorted(p.name for p in out_dir.glob(".*.tmp")))
        if len(calls) == 2:
            raise ValueError("cannot render layer")
        return real_export(*args, **kwargs)

    monkeypatch.setattr(cli.export, "export_layer", failing_export)
    assert run(argv) == 1
    assert "cannot render layer" in capsys.readouterr().err
    # the first layer was already on disk, under its temporary name, when the second failed
    assert calls == [[], [f".layer_00_t0.graphml.{os.getpid()}.tmp"]]
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_out_of_memory_exits_1_with_one_error_line(small_input, tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "new" / "out"
    real_export = cli.export.export_layer
    calls = []

    def exhausted_export(*args, **kwargs):  # the second layer's allocation fails
        calls.append(sorted(p.name for p in out_dir.glob(".*.tmp")))
        if len(calls) == 2:
            raise MemoryError
        return real_export(*args, **kwargs)

    monkeypatch.setattr(cli.export, "export_layer", exhausted_export)
    argv = ["build", str(small_input), "--thresholds", "0,50", "--dump-linkage", "--output-dir", str(out_dir)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory while building the output\n"
    assert calls[1] == [f".layer_00_t0.graphml.{os.getpid()}.tmp", f".linkage.csv.{os.getpid()}.tmp"]
    assert not (tmp_path / "new").exists()


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
