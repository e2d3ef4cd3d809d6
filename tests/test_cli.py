"""Command-line interface: exit codes, printed configuration, file
outputs and end-to-end synth/fit round trips.
"""

import filecmp
import os

import numpy as np
import pytest

from echofit.cli import main
from echofit.fitting import FitConfig, multi_start_fit
from echofit.guesses import initial_guess
from echofit.pipeline import fit_table
from echofit.trace import ScanTable, load_table, load_trace


def test_eval_field_preset_zero_field(capsys):
    rc = main(["eval", "field", "--preset", "field-7mK", "--B", "0",
               "--T", "0.007"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "40.02" in out


def test_every_run_prints_resolved_config(capsys):
    main(["eval", "field", "--preset", "field-7mK", "--B", "0.5"])
    out = capsys.readouterr().out
    assert "# config" in out
    # the resolved values appear, not just the flag names
    assert "B = 0.5" in out


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "field", "--wavelength", "1536"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_bad_parameter_value_fails_with_message(capsys):
    rc = main(["eval", "field", "--params", "gamma0_khz=-3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err


def test_synth_then_fit_round_trip(tmp_path, capsys):
    trace_path = tmp_path / "decay.txt"
    rc = main(["synth", "--model", "mims",
               "--params", "i0=1,tm_us=40,x=1.3",
               "--grid", "0.25:30:50:log",
               "--noise", "mult:0.02", "--seed", "5",
               "--out", str(trace_path)])
    assert rc == 0
    tr = load_trace(trace_path)
    assert tr.n_points == 50

    out_dir = tmp_path / "fitted"
    rc = main(["fit-2ppe", str(trace_path), "--window", "0.25:",
               "--restarts", "2", "--out", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    tbl = load_table(out_dir / "gamma_eff_vs_field.txt")
    tm_fit = 1e3 / (np.pi * tbl.value[0])
    assert abs(tm_fit - 40.0) / 40.0 < 0.02


def test_fit_2ppe_nan_window_edge_is_refused(tmp_path, capsys):
    # a NaN edge used to mask every point, and the row failed as
    # "initial_guess needs at least 3 points"
    trace_path = tmp_path / "decay.txt"
    assert main(["synth", "--model", "mims", "--params", "i0=1,tm_us=40,x=1.3",
                 "--grid", "0.25:30:50:log", "--out", str(trace_path)]) == 0
    capsys.readouterr()
    rc = main(["fit-2ppe", str(trace_path), "--window", "nan:"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("error: window must be None or a (lo, hi) pair whose edges are "
                   "each None or a finite number, got (nan, None)\n")


def test_synth_same_seed_same_file(tmp_path):
    args = ["synth", "--model", "mims", "--params", "i0=1,tm_us=40,x=1.3",
            "--grid", "0.25:30:20:log", "--noise", "mult:0.05", "--seed", "9"]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_check_grad_all_exits_zero(capsys):
    rc = main(["check-grad", "--all", "--draws", "20", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK" in out or "ok" in out


def test_scan_field_reports_minimum(tmp_path, capsys):
    rc = main(["scan-field", "--preset", "field-7mK", "--T", "0.007",
               "--b-max", "2.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "minimum" in out
    assert "0.1398" in out


def test_demo_runs_and_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "one", tmp_path / "two"
    assert main(["demo", "--seed", "3", "--out", str(a)]) == 0
    assert main(["demo", "--seed", "3", "--out", str(b)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    common = sorted(os.listdir(a))
    assert common == sorted(os.listdir(b))
    match, mismatch, errors = filecmp.cmpfiles(a, b, common, shallow=False)
    assert not mismatch and not errors


def test_outdir_env_var_is_default(tmp_path, monkeypatch, capsys):
    dest = tmp_path / "from-env"
    monkeypatch.setenv("ECHOFIT_OUTDIR", str(dest))
    # the parser reads the environment when the subcommand is built
    rc = main(["demo", "--seed", "2"])
    capsys.readouterr()
    assert rc == 0
    assert dest.is_dir()
    assert (dest / "summary.txt").exists()


def test_fit_3ppe_with_config_yaml(tmp_path, capsys):
    trace_paths = []
    for j, t12 in enumerate(("0.09", "0.33", "1.068")):
        p = tmp_path / f"t12_{j}.txt"
        rc = main(["synth", "--model", "echo3",
                   "--preset", "3ppe-7mK-0.09T",
                   "--grid", "50:7500:80:log",
                   "--noise", "mult:0.02", "--seed", str(40 + j),
                   "--t12-us", t12,
                   "--temperature-K", "0.007", "--field-T", "0.09",
                   "--out", str(p)])
        assert rc == 0
        trace_paths.append(str(p))

    cfg = tmp_path / "fit.yaml"
    cfg.write_text("t1_ms: 9.0\ntz_s: 2.0\nrestarts: 2\nseed: 1\n")
    out_dir = tmp_path / "joint"
    rc = main(["fit-3ppe", *trace_paths, "--config", str(cfg),
               "--out", str(out_dir)])
    capsys.readouterr()
    assert rc == 0
    tbl = load_table(out_dir / "gamma0_vs_field.txt")
    assert abs(tbl.value[0] - 7.96) < 3 * 0.48


@pytest.mark.parametrize("config, why", [
    ('free_t1: "no"\n', "free_t1 must be true or false, got 'no'"),
    ("free_t1:\n", "free_t1 must be true or false, got None"),
    ("free_t1: 1\n", "free_t1 must be true or false, got 1"),
    ("restarts: 2.5\n", "restarts must be an int, got 2.5"),
    ('max_iterations: "20"\n', "max_iterations must be an int, got '20'"),
    ("seed:\n", "seed must be an int, got None"),
    ("restart: 1\nmax_iteration: 2\ntol_grad: 0.5\nseed: 3\n",
     "unknown --config keys ['restart', 'max_iteration', 'tol_grad']; known: t1_ms, tz_s, "
     "tz_table, free_t1, restarts, seed, max_iterations"),
    ("- restarts: 1\n- seed: 2\n", "--config needs a mapping of keys to values, got a list"),
])
def test_fit_3ppe_config_value_of_the_wrong_type_is_named(tmp_path, capsys, config, why):
    # free_t1: "no" used to fit with T1 free; the others used to fail as
    # bare TypeErrors, or (an empty seed) to fit from a fresh seed each run;
    # unknown keys, typos and the stop tolerance alike, used to be printed
    # as in effect and then ignored
    trace = _synth(tmp_path, "t12.txt", "--model", "echo3", "--preset", "3ppe-7mK-0.09T",
                   "--grid", "50:7500:40:log", "--t12-us", "0.33")
    cfg = tmp_path / "fit.yaml"
    cfg.write_text(config)
    capsys.readouterr()
    assert main(["fit-3ppe", trace, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {why}\n"


def test_fit_2ppe_negative_seed_is_named(tmp_path, capsys):
    trace = _synth(tmp_path, "t.txt", "--model", "mims", "--params", "i0=1,tm_us=40,x=1.3",
                   "--grid", "0.25:30:50:log")
    capsys.readouterr()
    assert main(["fit-2ppe", trace, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0 with restarts > 1, got -1\n"


def _synth(tmp_path, name, *args):
    path = tmp_path / name
    assert main(["synth", *args, "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("command", ["fit-2ppe", "fit-3ppe"])
def test_fit_batch_with_a_too_short_trace_fails_its_row_and_exits_1(tmp_path, capsys,
                                                                    command):
    # the last row has too few points to fit: it prints "fit FAILED", keeps
    # its place in the report as a failed: row, and the run exits 1
    if command == "fit-2ppe":
        base = ["--model", "mims", "--params", "i0=1,tm_us=40,x=1.3", "--noise", "mult:0.02"]
        traces = [_synth(tmp_path, "good.txt", *base, "--grid", "0.25:30:50:log"),
                  _synth(tmp_path, "short.txt", *base, "--grid", "0.25:30:3:log",
                         "--field-T", "0.09")]
        table, why = "gamma_eff_vs_field.txt", "need at least 4 points inside the window, got 3"
    else:
        base = ["--model", "echo3", "--preset", "3ppe-7mK-0.09T", "--noise", "mult:0.02"]
        traces = [_synth(tmp_path, f"t12_{j}.txt", *base, "--grid", "50:7500:80:log",
                         "--t12-us", t12, "--seed", str(40 + j), "--field-T", "0.09")
                  for j, t12 in enumerate(("0.09", "0.33", "1.068"))]
        traces.append(_synth(tmp_path, "short.txt", *base, "--grid", "50:7500:5:log",
                             "--t12-us", "0.33", "--field-T", "0.3"))
        table, why = "gamma0_vs_field.txt", "need at least 7 points inside the window, got 5"
    capsys.readouterr()
    out_dir = tmp_path / "report"
    rc = main([command, *traces, "--restarts", "2", "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.count("fit FAILED") == 1
    assert f"wrote {len(os.listdir(out_dir))} files to {out_dir}" in out
    tbl = load_table(out_dir / table)
    assert tbl.flag[1] == f"failed: {why}"
    assert np.isnan(tbl.value[1]) and np.isfinite(tbl.value[0])
    assert "fit[1]: FAILED" in (out_dir / "summary.txt").read_text().splitlines()


def _fit_lines(res):
    """The parameter lines the CLI prints for ``res``."""
    return [f"  {name} = {res.params[name]:.6g} +- {res.stderr[name]:.6g}"
            for name in res.param_names]


def _field_scan_traces(tmp_path, short=None):
    """Seven synthesized 2ppe traces over a field scan; the one at index
    ``short`` has 3 points, too few to fit."""
    return [_synth(tmp_path, f"b{k}.txt", "--model", "mims", "--params",
                   f"i0=1,tm_us={tm},x=1.3",
                   "--grid", "0.25:200:3:log" if k == short else "0.25:200:50:log",
                   "--noise", "mult:0.02", "--seed", str(k), "--field-T", str(b))
            for k, (b, tm) in enumerate(zip((0.0, 0.02, 0.06, 0.14, 0.35, 0.9, 2.0),
                                            (8.0, 14.0, 30.0, 40.0, 30.0, 20.0, 16.0)))]


def test_scan_field_table_fits_a_fit_2ppe_report_weighted_by_its_stderr(tmp_path, capsys):
    traces = _field_scan_traces(tmp_path)
    out_dir = tmp_path / "report"
    assert main(["fit-2ppe", *traces, "--out", str(out_dir)]) == 0
    path = out_dir / "gamma_eff_vs_field.txt"
    capsys.readouterr()
    rc = main(["scan-field", "--table", str(path), "--restarts", "3", "--seed", "2",
               "--T", "0.007"])
    out = capsys.readouterr().out
    assert rc == 0
    table = load_table(path)
    assert np.all(table.stderr > 0)
    fixed = {"temp_k": 0.007}
    guess = initial_guess("field", table.condition, table.value, fixed)
    res = multi_start_fit("field", table.condition, table.value, guess.params,
                          sigma=table.stderr, cfg=FitConfig(restarts=3, seed=2),
                          fixed=fixed)
    for line in _fit_lines(res):
        assert line in out.splitlines()
    assert "minimum: B* = " in out


def test_scan_field_table_leaves_out_a_failed_row(tmp_path, capsys):
    # the 2 T trace has 3 points, so its report row is failed: and NaN;
    # the table fit used to refuse the whole table over it
    traces = _field_scan_traces(tmp_path, short=6)
    out_dir = tmp_path / "report"
    assert main(["fit-2ppe", *traces, "--out", str(out_dir)]) == 1
    path = out_dir / "gamma_eff_vs_field.txt"
    table = load_table(path)
    assert table.flag[6] == "failed: need at least 4 points inside the window, got 3"
    capsys.readouterr()
    rc = main(["scan-field", "--table", str(path), "--restarts", "3", "--seed", "2",
               "--T", "0.007"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    good = ScanTable(table.condition_axis, table.quantity_id, table.condition[:6],
                     table.value[:6], table.stderr[:6], table.flag[:6])
    res = fit_table("field", good, FitConfig(restarts=3, seed=2), {"temp_k": 0.007})
    assert "rows-dropped" not in ";".join(res.flags)
    start = out.index(f"model field: converged={res.converged} iterations={res.n_iterations} "
                      f"sse={res.sse:.6g} dof={res.dof}")
    end = start + 1 + len(res.param_names)
    assert out[start + 1:end] == _fit_lines(res)
    assert out[end] == f"  flags: {';'.join(res.flags + ('rows-dropped:1',))}"


def test_scan_temp_table_fits_a_scan_temp_table_unweighted(tmp_path, capsys):
    # a noiseless scan table has zero stderr, so the fit is unweighted
    path = tmp_path / "temp.txt"
    assert main(["scan-temp", "--points", "12", "--out", str(path)]) == 0
    capsys.readouterr()
    rc = main(["scan-temp", "--table", str(path), "--restarts", "2", "--seed", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    table = load_table(path)
    assert np.all(table.stderr == 0)
    guess = initial_guess("temp", table.condition, table.value)
    res = multi_start_fit("temp", table.condition, table.value, guess.params,
                          cfg=FitConfig(restarts=2, seed=4))
    for line in _fit_lines(res):
        assert line in out.splitlines()


@pytest.mark.parametrize("argv, flag", [
    (["eval", "mims", "--params", "i0=1,tm_us=40,x=1.3"], "--t12-us"),
    (["eval", "sd", "--preset", "3ppe-7mK-0.09T"], "--t23-us"),
    (["eval", "echo3", "--preset", "3ppe-7mK-0.09T", "--t23-us", "100"], "--t12-us"),
    (["eval", "echo3", "--preset", "3ppe-7mK-0.09T", "--t12-us", "0.3"], "--t23-us"),
])
def test_eval_without_a_delay_names_the_missing_flag(argv, flag, capsys):
    # it used to print nan and exit 0
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 1
    assert "nan" not in out
    assert f"error: eval {argv[1]} needs {flag}" in err


def test_eval_sd_defaults_t12_to_zero(capsys):
    rc = main(["eval", "sd", "--preset", "3ppe-7mK-0.09T", "--t23-us", "300"])
    with_zero = capsys.readouterr().out.splitlines()[-1]
    main(["eval", "sd", "--preset", "3ppe-7mK-0.09T", "--t23-us", "300", "--t12-us", "0"])
    assert rc == 0
    assert with_zero == capsys.readouterr().out.splitlines()[-1]
    assert with_zero.startswith("gamma_eff_khz = ") and "nan" not in with_zero
