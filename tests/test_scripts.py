"""Smoke runs of the study scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recovery_vs_noise_runs_one_cell(capsys):
    script = _load("recovery_vs_noise")
    rc = script.main(["--trials", "2", "--noise", "0.01", "--grid-sizes", "14"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    rows = [line.split() for line in lines if line.startswith("    14")]
    assert len(rows) == 1
    joint, per = script.recovery_rate(script.make_grid(14), 0.01, 2, 4000)
    assert rows[0][:3] == ["14", "0.01", f"{joint:.0%}"]
    assert rows[0][3:] == [f"{v:.0%}" for v in per.values()]


# The table that recovery_vs_noise.py --trials 3 prints at its default
# grid sizes and noise levels.  Every fit of the study path reaches it, so
# a change to synth, the guess or the engine that moves a fit can move it;
# such a change re-records these rows and names the ones that moved.
RECOVERY_TABLE_3_TRIALS = [
    ' n_pts   noise   joint   gamma0_khz   alpha1_khz   alpha2_khz           g1           g2',
    '    14    0.03      0%          67%          67%          67%         100%          67%',
    '    14    0.01    100%         100%         100%         100%         100%         100%',
    '    14   0.003    100%         100%         100%         100%         100%         100%',
    '    40    0.03     67%         100%          67%          67%         100%          67%',
    '    40    0.01    100%         100%         100%         100%         100%         100%',
    '    40   0.003    100%         100%         100%         100%         100%         100%',
    '   120    0.03     67%         100%         100%          67%         100%         100%',
    '   120    0.01    100%         100%         100%         100%         100%         100%',
    '   120   0.003    100%         100%         100%         100%         100%         100%',
]


def test_recovery_vs_noise_prints_its_recorded_table(capsys):
    assert _load("recovery_vs_noise").main(["--trials", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[4:14] == RECOVERY_TABLE_3_TRIALS
    assert len(lines) == 16


def test_field_minimum_scan_finds_b_star_proportional_to_t(capsys):
    script = _load("field_minimum_scan")
    rc = script.main(["--points", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    rows = [line.split() for line in lines[5:9]]
    assert len(rows) == 4
    ratios = np.array([float(row[3]) for row in rows])
    assert np.ptp(ratios) / ratios.mean() < 1e-6
    assert lines[-1].startswith("B*/T constant to ")
