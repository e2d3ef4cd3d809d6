"""Acceptance suite: eleven numbered checks covering identities, the
gradient contract, round-trip estimation at realistic noise levels,
uncertainty calibration and pipeline determinism.

Each check records one PASS/FAIL line that the conftest replays after
the pytest summary.  Statistical checks use fixed seeds; their stated
thresholds come from the component contract, not from tuning.
"""

import filecmp
import functools
import os
import time

import numpy as np

from echofit import models
from echofit.catalog import CATALOG, gradient_check
from echofit.constants import MU_B_OVER_K_B
from echofit.fitting import FitConfig, fit, fit_trials
from echofit.pipeline import DEMO_FIELD_GRID_T, batch_fit_3ppe, run_demo, window_mask
from echofit.presets import (
    FIELD_7MK,
    FIELD_7MK_SIGMA,
    SD_7MK_009T,
    SD_7MK_009T_SIGMA,
    T12_SET_US,
)
from echofit.synth import SynthSpec, synth_scan, synth_trace

from conftest import record_criterion

MIMS_TRUTH = {"i0": 1.0, "tm_us": 40.0, "x": 1.3}


def _verdict(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    record_criterion(f"criterion {number:2d} {status}  {name}: {detail}")
    return ok


# ---------------------------------------------------------------------------

def test_criterion_01_zero_field_identity():
    got = models.field_linewidth(FIELD_7MK, 0.0, {"temp_k": 0.007})
    err = abs(got - 40.02)
    ok = err < 1e-9
    assert _verdict(1, "zero-field linewidth identity", ok,
                    f"gamma(0) = {got:.12g} kHz, |err| = {err:.3g}"), got


def test_criterion_02_high_field_asymptote():
    # both exponential arguments exceed 50 for B > ~81.4 T at 7 mK
    worst = max(abs(models.field_linewidth(FIELD_7MK, b, {"temp_k": 0.007}) - 25.04)
                for b in (90.0, 150.0, 500.0, 1e4))
    ok = worst < 1e-6
    assert _verdict(2, "high-field asymptote", ok,
                    f"max |gamma - 25.04| = {worst:.3g} kHz"), worst


def test_criterion_03_field_minimum_matches_analytic():
    t0 = time.time()
    p = FIELD_7MK
    c = MU_B_OVER_K_B / 0.007
    b_analytic = (np.log(p["alpha1_khz"] * p["g1"] / (p["alpha2_khz"] * p["g2"]))
                  / ((p["g1"] - p["g2"]) * c))
    b_num, g_num, boundary = models.field_linewidth_minimum(p, 2.0, {"temp_k": 0.007})
    elapsed = time.time() - t0
    ok = (boundary is None and abs(b_num - b_analytic) < 1e-4
          and 8.5 <= g_num <= 10.0 and elapsed < 1.0)
    assert _verdict(3, "field-scan minimum", ok,
                    f"B* = {b_num:.6f} T (analytic {b_analytic:.6f}), "
                    f"gamma* = {g_num:.4f} kHz, {elapsed:.2f} s")


def test_criterion_04_linewidth_time_conversion():
    got = models.gamma_eff_from_tm(40.0)
    err = abs(got - 7.96)
    ok = err < 0.01
    assert _verdict(4, "T_M to linewidth conversion", ok,
                    f"40 us -> {got:.4f} kHz, |err| = {err:.4f}")


def test_criterion_05_gradient_suite():
    t0 = time.time()
    worst = {m: gradient_check(m, n_draws=100, seed=0) for m in sorted(CATALOG)}
    elapsed = time.time() - t0
    bad = {m: v for m, v in worst.items() if v >= 1e-5}
    ok = not bad and elapsed < 10.0
    assert _verdict(5, "analytic Jacobians vs finite differences", ok,
                    f"worst {max(worst.values()):.2e} over "
                    f"{len(worst)} models x 100 draws, {elapsed:.1f} s"), worst


def _in_window(tr):
    """A trace's samples inside the 0.25 us fit window."""
    keep = window_mask(tr.time_us, (0.25, None))
    return tr.time_us[keep], tr.intensity[keep]


@functools.cache
def _mims_fits(n_trials=200, sigma=0.02):
    """The 200 noisy decays that criteria 6 and 10 share, fitted once."""
    traces = [synth_trace(SynthSpec("mims", MIMS_TRUTH, (0.25, 30.0, 50, "log"),
                                    ("multiplicative", sigma), seed=1000 + k))
              for k in range(n_trials)]
    return tuple(fit_trials("mims", [_in_window(tr) for tr in traces], restarts=2))


def test_criterion_06_mims_round_trip():
    t0 = time.time()
    fits = _mims_fits()
    tm_err = np.median([abs(r.params["tm_us"] - 40.0) / 40.0 for r in fits])
    x_err = np.median([abs(r.params["x"] - 1.3) for r in fits])

    clean = synth_trace(SynthSpec("mims", MIMS_TRUTH, (0.25, 30.0, 50, "log")))
    exact = fit("mims", *_in_window(clean), None)
    rel = max(abs(exact.params[k] - v) / v for k, v in MIMS_TRUTH.items())
    elapsed = time.time() - t0
    ok = tm_err < 0.02 and x_err < 0.05 and rel <= 1e-6 and elapsed < 30.0
    assert _verdict(6, "stretched-exponential round trip", ok,
                    f"median |T_M err| = {tm_err * 100:.2f}%, "
                    f"median |x err| = {x_err:.4f}, "
                    f"noiseless rel err = {rel:.1e}, {elapsed:.1f} s")


def test_criterion_07_field_model_round_trip():
    # 14-point scan over [0, 2] T, 3% multiplicative noise, 50 seeded
    # trials; success requires every parameter inside 3x its reference
    # uncertainty.  This design does not carry enough information for
    # the two quenching amplitudes: with oracle initialization the
    # slow-rise pair (alpha2, g2) lands inside its band in only ~35-45%
    # of trials (their one-sigma estimator spread exceeds the band), so
    # the joint rate sits near 25% no matter how the fit is started.
    # The check is implemented as stated rather than widened.
    t0 = time.time()
    grid = np.array(DEMO_FIELD_GRID_T)
    truth = dict(FIELD_7MK)
    scans = [synth_scan("field", truth, grid, ("multiplicative", 0.03), seed=4000 + k,
                        fixed={"temp_k": 0.007}) for k in range(50)]
    wins = 0
    for res in fit_trials("field", [(s.condition, s.value) for s in scans], restarts=4,
                          fixed={"temp_k": 0.007}):
        wins += all(abs(res.params[n] - truth[n]) <= 3 * FIELD_7MK_SIGMA[n]
                    for n in FIELD_7MK_SIGMA)
    rate = wins / 50.0
    elapsed = time.time() - t0
    ok = rate >= 0.90 and elapsed < 60.0
    assert _verdict(7, "field-quenching round trip", ok,
                    f"joint 3-sigma recovery {rate * 100:.0f}% "
                    f"(threshold 90%), {elapsed:.1f} s"), (
        f"five-parameter recovery on a 14-point scan at 3% noise reached "
        f"{rate * 100:.0f}%; the slow-rise amplitude pair is not "
        f"statistically identifiable at this design (estimator spread "
        f"exceeds the 3x reference band)")


def test_criterion_08_stimulated_echo_round_trip():
    t0 = time.time()
    truth = dict(i0=1.0, beta=0.2, **SD_7MK_009T)
    check_names = tuple(SD_7MK_009T_SIGMA)
    wins = 0
    for k in range(50):
        traces = [synth_trace(SynthSpec(
            "echo3", truth, (50.0, 7500.0, 250, "log"),
            ("multiplicative", 0.03), seed=9000 + k * 7 + j,
            temperature_k=0.007, field_t=0.09,
            fixed={"t1_ms": 9.0, "tz_s": 2.0, "t0_us": 50.0,
                   "t12_us": t12}))
            for j, t12 in enumerate(T12_SET_US)]
        _, fits = batch_fit_3ppe(traces,
                                 cfg=FitConfig(restarts=2, seed=k),
                                 fixed={"t1_ms": 9.0, "tz_s": 2.0})
        res = fits[0]
        wins += (res is not None and all(
            abs(res.params[n] - truth[n]) <= 3 * SD_7MK_009T_SIGMA[n]
            for n in check_names))
    rate = wins / 50.0
    elapsed = time.time() - t0
    ok = rate >= 0.90 and elapsed < 120.0
    assert _verdict(8, "waiting-time round trip", ok,
                    f"joint 3-sigma recovery {rate * 100:.0f}% "
                    f"(threshold 90%), {elapsed:.1f} s")


def test_criterion_09_population_factor_limits():
    t1 = 9.0
    t = np.linspace(0.0, 5 * t1, 301)
    limit = models.three_level_population_factor(
        {"beta": 0.5}, t, {"t1_ms": t1, "tz_s": t1 * 1e-3})
    disc = 0.0
    for eps in (1e-7, -1e-7):
        near = models.three_level_population_factor(
            {"beta": 0.5}, t, {"t1_ms": t1, "tz_s": t1 * 1e-3 * (1 + eps)})
        disc = max(disc, float(np.max(np.abs(near - limit))))

    p = dict(i0=0.9, beta=0.0, gamma0_khz=7.96, gamma_sd_khz=0.0, r_sd_khz=1.02,
             gamma_tls_khz=0.0)
    rng = np.random.default_rng(12)
    t12 = rng.uniform(0.05, 2.0, 20)
    t23 = rng.uniform(50.0, 7500.0, 20)
    got = models.stimulated_echo_intensity(p, t12, t23,
                                           {"t1_ms": t1, "tz_s": 2.0, "t0_us": 50.0})
    want = (0.9 * np.exp(-t23 * 1e-3 / t1) ** 2
            * np.exp(-4 * np.pi * t12 * 1e-3 * 7.96))
    rel = float(np.max(np.abs(got / want - 1.0)))
    ok = disc < 1e-8 and rel < 1e-12
    assert _verdict(9, "population-factor limits", ok,
                    f"equal-lifetime discontinuity {disc:.2e}, "
                    f"two-level reduction rel err {rel:.2e}")


def test_criterion_10_uncertainty_calibration():
    t0 = time.time()
    fits = _mims_fits()
    hits, total = 0, 0
    for res in fits:
        for name, truth in MIMS_TRUTH.items():
            hits += abs(res.params[name] - truth) <= res.stderr[name]
            total += 1
    coverage = hits / total
    elapsed = time.time() - t0
    ok = 0.62 <= coverage <= 0.75
    assert _verdict(10, "one-sigma coverage", ok,
                    f"{coverage * 100:.1f}% over {total} parameter draws "
                    f"(window 62-75%), {elapsed:.1f} s")


def test_criterion_11_pipeline_determinism(tmp_path):
    a, b = str(tmp_path / "run1"), str(tmp_path / "run2")
    paths_a, checks_a = run_demo(a, seed=1)
    paths_b, checks_b = run_demo(b, seed=1)
    names = sorted(os.path.basename(p) for p in paths_a)
    same_names = names == sorted(os.path.basename(p) for p in paths_b)
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    all_pass = all(ok for _, ok, _ in checks_a + checks_b)
    ok = same_names and not mismatch and not errors and all_pass
    assert _verdict(11, "pipeline determinism", ok,
                    f"{len(names)} report files byte-identical across runs, "
                    f"embedded checks {'all pass' if all_pass else 'FAILED'}")
