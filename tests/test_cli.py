from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path
from xml.dom import minidom

import pytest

from collabnet import cli
from collabnet.cli import ConfigError, RunConfig, run_pipeline
from collabnet.export import ExportFormat
from collabnet.synth import SynthConfig, generate_csv_bytes

SMALL_CSV = generate_csv_bytes(SynthConfig(seed=11, n_projects=50, n_members=48))


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
    out = capsys.readouterr().out
    assert "projects: 50" in out
    assert "records:" in out and "members:" in out


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


def test_config_errors_exit_2(small_input, tmp_path, capsys):
    assert run(["build", str(small_input), "--thresholds", "20,10", "--output-dir", str(tmp_path / "x")]) == 2
    assert run(["build", str(small_input), "--thresholds", "abc", "--output-dir", str(tmp_path / "y")]) == 2
    assert run(["build", str(small_input), "--thresholds", "0,20", "--types", "invoice"]) == 2
    out = str(tmp_path / "z")
    assert run(["build", str(small_input), "--thresholds", "0,1e400", "--output-dir", out]) == 2
    assert run(["build", str(small_input), "--thresholds", "0,20", "--bins", "0", "--output-dir", out]) == 2
    assert run(["build", str(small_input), "--thresholds", "0,20", "--delimiter", ";;", "--output-dir", out]) == 2
    assert not (tmp_path / "z").exists()


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


def test_strict_flag_propagates(tmp_path):
    over = tmp_path / "over.csv"
    over.write_text(
        "project_id,member_id,contribution_pct,project_type\nP1,M1,70,IP\nP1,M2,40,IP\nP2,M1,10,IP\n"
    )
    with pytest.warns(Warning):
        assert run(["build", str(over), "--thresholds", "0,50", "--output-dir", str(tmp_path / "a")]) == 0
    assert run(["build", str(over), "--thresholds", "0,50", "--strict", "--output-dir", str(tmp_path / "b")]) == 1


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(input_path="x", output_dir=Path("y"))  # no threshold source
    with pytest.raises(ConfigError):
        RunConfig(input_path="x", output_dir=Path("y"), thresholds=(0.0,), linspace=4)
    with pytest.raises(ConfigError):
        RunConfig(input_path="x", output_dir=Path("y"), linspace=1)
    with pytest.raises(ConfigError):
        RunConfig(input_path="x", output_dir=Path("y"), thresholds=(0.0,), type_filter=frozenset())


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
    assert list(out_dir.iterdir()) == []


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
