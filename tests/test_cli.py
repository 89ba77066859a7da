"""End-to-end tests for the command-line pipeline."""

import pytest

import intrinsic_time as it
from intrinsic_time.cli import cli_main
from intrinsic_time.io import _fmt


def run_cli(*argv):
    return cli_main(list(argv))


def test_generate_flat_then_transform_counts_nothing(tmp_path):
    ticks = tmp_path / "ticks.csv"
    out_dir = tmp_path / "out"
    assert run_cli("generate", "--model", "gbm", "--sigma", "0", "--mu", "0",
                   "--s0", "50", "--steps", "500", "--seed", "1",
                   "--out", str(ticks)) == 0
    assert run_cli("transform", "--in", str(ticks), "--deltas", "0.01",
                   "--out-dir", str(out_dir)) == 0
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[-1] == "0.01,0,0,0"
    events = it.read_events(out_dir / "events_delta_0.01.csv")
    assert events == []


def test_transform_reproduces_hand_traced_events(tmp_path):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text("# fixture\ntimestamp,price\n0,100.0\n1,99.0\n2,98.01\n"
                     "3,99.0001\n")
    out_dir = tmp_path / "out"
    assert run_cli("transform", "--in", str(ticks), "--deltas", "0.01",
                   "--timestamp-unit", "s", "--out-dir", str(out_dir)) == 0
    events = it.read_events(out_dir / "events_delta_0.01.csv")
    expected = it.process([(0, 100.0), (10**9, 99.0), (2 * 10**9, 98.01),
                           (3 * 10**9, 99.0001)], it.ThresholdConfig(0.01))
    assert events == expected
    kinds = [e.kind.value for e in events]
    assert kinds == ["DC", "OS", "DC"]


def test_transform_jsonl_format(tmp_path):
    ticks = tmp_path / "ticks.csv"
    run_cli("generate", "--model", "walk", "--step-size", "0.01", "--steps",
            "200", "--seed", "3", "--out", str(ticks))
    out_dir = tmp_path / "out"
    assert run_cli("transform", "--in", str(ticks), "--deltas", "0.005,0.02",
                   "--format", "jsonl", "--out-dir", str(out_dir)) == 0
    for delta in ("0.005", "0.02"):
        path = out_dir / f"events_delta_{delta}.jsonl"
        assert path.exists()
        events = it.read_events(path, it.EventFileFormat.JSONL)
        assert all(e.delta == float(delta) for e in events)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_transform_files_equal_write_events(tmp_path, capsys, fmt):
    ticks = tmp_path / "ticks.csv"
    run_cli("generate", "--model", "walk", "--step-size", "0.003", "--steps",
            "2000", "--seed", "4", "--out", str(ticks))
    out_dir = tmp_path / "out"
    deltas = [0.001, 0.01]
    assert run_cli("transform", "--in", str(ticks), "--deltas",
                   ",".join(map(repr, deltas)), "--convention", "log", "--format", fmt,
                   "--out-dir", str(out_dir)) == 0
    capsys.readouterr()
    series = it.parse_ticks(it.TickFileSpec(ticks))
    expected = tmp_path / f"expected.{fmt}"
    counts = []
    for delta in deltas:
        config = it.ThresholdConfig(delta, it.MoveConvention.LOG_RETURN)
        events = it.process(series, config)
        counts.append(len(events))
        it.write_events(events, expected, it.EventFileFormat(fmt))
        assert (out_dir / f"events_delta_{delta!r}.{fmt}").read_bytes() \
            == expected.read_bytes()
    assert counts[0] > 1024  # past the C scan's first event buffer


def test_scaling_command_prints_fit(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    run_cli("generate", "--model", "gbm", "--sigma", "0.002", "--mu", "0",
            "--steps", "200000", "--seed", "5", "--out", str(ticks))
    out = tmp_path / "scaling.csv"
    assert run_cli("scaling", "--in", str(ticks), "--deltas",
                   "0.002,0.004,0.008", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "dc-count power law" in printed
    assert "mean_overshoot_ratio" in printed
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[2] == "delta,n_dc,mean_overshoot_ratio"
    assert len(lines) == 6


def test_decompose_command_reports_cv(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    run_cli("generate", "--model", "gbm", "--sigma", "0.002", "--mu", "0",
            "--steps", "100000", "--seed", "6", "--out", str(ticks))
    out = tmp_path / "decomp.csv"
    assert run_cli("decompose", "--in", str(ticks), "--deltas", "0.002,0.004",
                   "--dt-seconds", "20", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "ratio_cv across thresholds:" in printed
    lines = out.read_text().splitlines()
    assert lines[2] == "delta,os_variability,n_dc,rhs,ratio,insufficient"
    assert len(lines) == 5


def test_usage_errors_exit_2(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text("timestamp,price\n0,1.0\n")
    assert run_cli("no-such-command") == 2
    assert run_cli("transform", "--in", str(ticks), "--deltas", "1.5",
                   "--out-dir", str(tmp_path)) == 2
    assert run_cli("transform", "--in", str(ticks), "--deltas", "0.01,0.01",
                   "--out-dir", str(tmp_path)) == 2
    assert run_cli("transform", "--in", str(tmp_path / "missing.csv"),
                   "--deltas", "0.01", "--out-dir", str(tmp_path)) == 2
    assert run_cli("generate", "--model", "walk", "--steps", "10",
                   "--out", str(tmp_path / "w.csv")) == 2
    for argv in (["walk", "--step-size", "0.01", "--dt", "0.5"],
                 ["walk", "--step-size", "0.01", "--mu", "0.1"],
                 ["walk", "--step-size", "0.01", "--sigma", "0"],
                 ["gbm", "--step-size", "0.01"]):
        capsys.readouterr()
        assert run_cli("generate", "--model", *argv, "--steps", "10",
                       "--out", str(tmp_path / "w.csv")) == 2
        assert f"--model {argv[0]} does not take {argv[-2]}\n" in capsys.readouterr().err
    assert not (tmp_path / "w.csv").exists()
    for dt in ("nan", "inf", "0", "-1", "4e-10"):
        assert run_cli("decompose", "--in", str(ticks), "--deltas", "0.01",
                       "--dt-seconds", dt) == 2
    capsys.readouterr()


def test_runtime_errors_exit_1_without_partial_output(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,price\n0,100.0\n1,-3.0\n")
    assert run_cli("transform", "--in", str(bad), "--deltas", "0.01",
                   "--out-dir", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "row 3" in err
    assert not (tmp_path / "out").exists()


def test_undecodable_input_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"timestamp,price\n0,1.0\n1,\xff\xfe\n")
    assert run_cli("transform", "--in", str(bad), "--deltas", "0.01",
                   "--out-dir", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: row 3: ") and "bad.csv is not valid UTF-8" in err
    assert not (tmp_path / "out").exists()


def test_scaling_slope_on_long_diffusive_walk(tmp_path, capsys):
    # sigma well below the smallest threshold gives clean inverse-square
    # scaling of the reversal counts
    ticks = tmp_path / "ticks.csv"
    run_cli("generate", "--model", "gbm", "--sigma", "1e-4", "--mu", "5e-9",
            "--steps", "1000000", "--seed", "1000", "--out", str(ticks))
    out = tmp_path / "scaling.csv"
    assert run_cli("scaling", "--in", str(ticks), "--deltas",
                   "0.001,0.002,0.004,0.008", "--out", str(out)) == 0
    capsys.readouterr()
    fit_line = out.read_text().splitlines()[1]
    b = float(fit_line.split(" b=")[1].split()[0])
    assert -2.15 <= b <= -1.85


def test_allow_unordered_sorts_input(tmp_path):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text("timestamp,price\n2,100.0\n1,101.0\n3,102.0\n")
    out_dir = tmp_path / "out"
    assert run_cli("transform", "--in", str(ticks), "--deltas", "0.01",
                   "--timestamp-unit", "s", "--out-dir", str(out_dir)) == 1
    assert run_cli("transform", "--in", str(ticks), "--deltas", "0.01",
                   "--timestamp-unit", "s", "--allow-unordered",
                   "--out-dir", str(out_dir)) == 0


def test_pipeline_rerun_is_byte_identical(tmp_path):
    def run_pipeline(base):
        base.mkdir()
        ticks = base / "ticks.csv"
        run_cli("generate", "--model", "gbm", "--sigma", "0.003", "--mu",
                "0.0001", "--steps", "50000", "--seed", "42", "--out", str(ticks))
        run_cli("transform", "--in", str(ticks), "--deltas", "0.002,0.008",
                "--out-dir", str(base / "events"))
        run_cli("scaling", "--in", str(ticks), "--deltas", "0.002,0.004,0.008",
                "--out", str(base / "scaling.csv"))
        run_cli("decompose", "--in", str(ticks), "--deltas", "0.002,0.008",
                "--dt-seconds", "25", "--out", str(base / "decomp.csv"))
        files = sorted(p for p in base.rglob("*") if p.is_file())
        return {p.relative_to(base): p.read_bytes() for p in files}

    first = run_pipeline(tmp_path / "a")
    second = run_pipeline(tmp_path / "b")
    assert first == second


def test_close_thresholds_get_distinct_labels(tmp_path, capsys):
    # both thresholds print as 0.00123457 with six significant digits
    ticks = tmp_path / "ticks.csv"
    run_cli("generate", "--model", "walk", "--step-size", "0.003", "--steps",
            "5000", "--seed", "8", "--out", str(ticks))
    out_dir = tmp_path / "out"
    deltas = "0.0012345671,0.0012345674"
    assert run_cli("transform", "--in", str(ticks), "--deltas", deltas,
                   "--out-dir", str(out_dir)) == 0
    assert run_cli("scaling", "--in", str(ticks), "--deltas", deltas,
                   "--out", str(tmp_path / "scaling.csv")) == 0
    assert run_cli("decompose", "--in", str(ticks), "--deltas", deltas,
                   "--dt-seconds", "10", "--out", str(tmp_path / "decomp.csv")) == 0
    printed = capsys.readouterr().out
    assert sorted(p.name for p in out_dir.glob("events_delta_*")) == [
        "events_delta_0.0012345671.csv", "events_delta_0.0012345674.csv"]
    for table in (out_dir / "summary.csv", tmp_path / "scaling.csv",
                  tmp_path / "decomp.csv"):
        labels = [line.split(",")[0] for line in table.read_text().splitlines()[-2:]]
        assert labels == ["0.0012345671", "0.0012345674"]
    assert printed.count("0.0012345671") == 3 and printed.count("0.0012345674") == 3


def test_each_command_scans_each_threshold_once(tmp_path, monkeypatch, capsys):
    ticks = tmp_path / "ticks.csv"
    run_cli("generate", "--model", "walk", "--step-size", "0.003", "--steps",
            "5000", "--seed", "9", "--out", str(ticks))
    calls = []
    process_arrays = it.engine.process_arrays

    def counting(*args, **kwargs):
        calls.append(args[1].delta)
        return process_arrays(*args, **kwargs)

    monkeypatch.setattr(it.engine, "process_arrays", counting)
    common = ["--in", str(ticks), "--deltas", "0.002,0.004,0.008"]
    for command, extra in [("transform", ["--out-dir", str(tmp_path / "out")]),
                           ("scaling", []),
                           ("decompose", ["--dt-seconds", "10"])]:
        calls.clear()
        assert run_cli(command, *common, *extra) == 0
        assert sorted(calls) == [0.002, 0.004, 0.008], command
    capsys.readouterr()


@pytest.mark.parametrize("convention", ["relative", "log"])
def test_scaling_rows_match_edge_api(tmp_path, capsys, convention):
    ticks = tmp_path / "ticks.csv"
    run_cli("generate", "--model", "gbm", "--sigma", "0.002", "--mu", "0",
            "--steps", "20000", "--seed", "10", "--out", str(ticks))
    out = tmp_path / "scaling.csv"
    deltas = [0.002, 0.004, 0.25]  # one DC at 0.25: no completed segment, ratio nan
    assert run_cli("scaling", "--in", str(ticks), "--deltas",
                   ",".join(map(repr, deltas)), "--convention", convention,
                   "--out", str(out)) == 0
    capsys.readouterr()
    series = it.parse_ticks(it.TickFileSpec(ticks))
    expected = []
    for delta in deltas:
        config = it.ThresholdConfig(delta, it.MoveConvention(convention))
        events = it.process(series, config)
        n_dc = sum(1 for ev in events if ev.kind is it.EventKind.DIRECTIONAL_CHANGE)
        omegas = it.overshoot_lengths(it.process_arrays(series, config))
        ratio = it.mean_overshoot_ratio(omegas, delta) if omegas.size else float("nan")
        expected.append(f"{delta!r},{n_dc},{_fmt(ratio)}")
    assert out.read_text().splitlines()[3:] == expected


@pytest.mark.parametrize("argv, message", [
    (["gbm", "--s0", "inf"], "s0 must be positive and finite, got inf"),
    (["gbm", "--sigma", "nan"], "sigma must be non-negative and finite, got nan"),
    (["walk", "--step-size", "0.01", "--s0", "inf"], "s0 must be positive and finite, got inf"),
])
def test_generate_parameters_that_are_not_finite_exit_1(tmp_path, capsys, argv, message):
    out = tmp_path / "ticks.csv"
    assert run_cli("generate", "--model", *argv, "--steps", "10", "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_generate_gbm_leaving_float64_exits_1_naming_the_parameters(tmp_path, capsys):
    out = tmp_path / "ticks.csv"
    assert run_cli("generate", "--model", "gbm", "--sigma", "0.3", "--steps", "30000",
                   "--dt", "1", "--seed", "11", "--out", str(out)) == 1
    err = capsys.readouterr().err
    for named in ("s0=1.0", "sigma=0.3", "dt_step=1.0", "n_steps=30000", "seed=11",
                  "at step 16527"):
        assert named in err
    assert not out.exists()
