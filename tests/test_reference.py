"""The results recorded in ``bench/reference.json`` still come out: the
report digest of every demo seed, and the fitted parameters of the
recovery-mc reference seed (to ``RTOL`` relative).  Each output is judged
by the benchmark workload's own ``check``."""

import json
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    # Executed from its source, so nothing is written under bench/.
    path = BENCH / "workloads.py"
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = _workloads()
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _failures(wl, seed):
    """``(input number, reason)`` of every reference input whose output
    fails the workload's check."""
    inputs = wl.reference_inputs()
    expected = wl.expected(REFERENCE[wl.name], seed, inputs)
    assert len(expected) == len(inputs) and None not in expected
    failures = []
    for k, (inp, want) in enumerate(zip(inputs, expected)):
        why = wl.check(inp, wl.run(inp), want)
        if why is not None:
            failures.append((k, why))
    return failures


def test_every_demo_report_matches_its_recorded_digest(tmp_path):
    wl = WORKLOADS.Demo(tmp_path)
    assert wl.reference_inputs() == list(range(1, 33))
    assert _failures(wl, seed=1) == []


def test_recovery_mc_reference_fits_match_their_recorded_parameters():
    wl = WORKLOADS.RecoveryMC()
    assert len(REFERENCE[wl.name]) == 72
    assert _failures(wl, seed=WORKLOADS.REFERENCE_SEED) == []
