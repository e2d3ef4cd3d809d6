"""Levenberg-Marquardt engine: recovery, uncertainty calibration hooks,
window semantics, convergence bookkeeping and initial guesses.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from echofit import fitting, models
from echofit.catalog import CATALOG, dnatural_dinternal, to_internal, to_natural
from echofit.fitting import (
    FitConfig,
    FitError,
    _covariance,
    _damped_solve,
    _jitter_factors,
    _prepare,
    _starts,
    fit,
    multi_start_batch,
    multi_start_fit,
)
from echofit.guesses import initial_guess
from echofit.pipeline import DEMO_FIELD_GRID_T, _demo_3ppe_traces, batch_fit_3ppe
from echofit.params import FieldModelParams, TempModelParams
from echofit.presets import (
    FIELD_7MK,
    SD_7MK_009T,
    T12_SET_US,
    TEMP_009T,
    THREE_LEVEL_7MK_009T,
)
from echofit.synth import SynthSpec, build_grid, synth_trace

MIMS_TRUTH = {"i0": 1.0, "tm_us": 40.0, "x": 1.3}


def _mims_data(noise=("none", 0.0), seed=0, n=50):
    tr = synth_trace(SynthSpec("mims", MIMS_TRUTH, (0.25, 30.0, n, "log"),
                               noise, seed=seed))
    return tr.time_us, tr.intensity


def _jitter(params, rng, frac=0.3):
    return {k: v * (1 + rng.uniform(-frac, frac)) for k, v in params.items()}


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------

def test_noiseless_mims_recovery_from_jittered_init():
    t, y = _mims_data()
    rng = np.random.default_rng(42)
    for _ in range(5):
        res = fit("mims", t, y, _jitter(MIMS_TRUTH, rng))
        assert res.converged
        for k, v in MIMS_TRUTH.items():
            assert abs(res.params[k] - v) / v < 1e-6


def test_noiseless_field_recovery():
    b = np.array([0.0, 0.01, 0.02, 0.04, 0.07, 0.1, 0.14, 0.2, 0.3, 0.5,
                  0.8, 1.2, 1.6, 2.0])
    y = models.field_linewidth(FIELD_7MK, b, 0.007)
    truth = FIELD_7MK.to_dict()
    rng = np.random.default_rng(7)
    res = fit("field", b, y, _jitter(truth, rng, 0.2), fixed={"temp_k": 0.007})
    assert res.converged
    for k, v in truth.items():
        assert abs(res.params[k] - v) / v < 1e-6


def test_field_fit_with_the_quenched_g_below_the_rising_g_is_flagged():
    # g1 > g2 is the canonical labeling; a fit that ends the other way
    # round is in a suspect basin and says so
    truth = {**FIELD_7MK.to_dict(), "g1": FIELD_7MK.g2, "g2": FIELD_7MK.g1}
    b = np.array(DEMO_FIELD_GRID_T)
    y = models.field_linewidth(FieldModelParams(**truth), b, 0.007)
    res = fit("field", b, y, truth, fixed={"temp_k": 0.007})
    assert res.params["g1"] < res.params["g2"]
    assert res.flags == ("g-ordering",)


def test_noiseless_temp_recovery():
    truth = {"floor_khz": 7.5, "amp_khz": 45.0, "exponent_n": 1.34}
    t = build_grid((0.007, 1.0, 20, "log"))
    y = models.temp_linewidth(TempModelParams(**truth), t)
    res = fit("temp", t, y, {"floor_khz": 5.0, "amp_khz": 60.0,
                             "exponent_n": 1.1})
    assert res.converged
    for k, v in truth.items():
        assert abs(res.params[k] - v) / v < 1e-6


def test_noiseless_sd_recovery():
    truth = {k: v for k, v in SD_7MK_009T.to_dict().items() if k != "t0_us"}
    t23 = build_grid((50.0, 7500.0, 40, "log"))
    x = np.column_stack([np.full_like(t23, 0.33), t23])
    y = models.sd_linewidth(SD_7MK_009T, 0.33, t23)
    rng = np.random.default_rng(3)
    res = fit("sd", x, y, _jitter(truth, rng, 0.25), fixed={"t0_us": 50.0})
    assert res.converged
    for k, v in truth.items():
        assert abs(res.params[k] - v) / v < 1e-5


def test_noisy_mims_recovery_tolerance():
    t, y = _mims_data(noise=("multiplicative", 0.02), seed=11)
    res = fit("mims", t, y, MIMS_TRUTH, cfg=FitConfig(window=(0.25, None)))
    assert abs(res.params["tm_us"] - 40.0) / 40.0 < 0.02
    assert abs(res.params["x"] - 1.3) < 0.05


def test_estimator_consistency_with_noise_level():
    # median |T_M error| must shrink as the noise level drops
    med = {}
    for sigma in (0.05, 0.02, 0.005):
        errs = []
        for k in range(30):
            t, y = _mims_data(noise=("multiplicative", sigma), seed=5000 + k)
            res = fit("mims", t, y, MIMS_TRUTH)
            errs.append(abs(res.params["tm_us"] - 40.0) / 40.0)
        med[sigma] = float(np.median(errs))
    assert med[0.05] > med[0.02] > med[0.005]


# ---------------------------------------------------------------------------
# uncertainties
# ---------------------------------------------------------------------------

def test_noiseless_fit_has_tiny_stderr():
    t, y = _mims_data()
    res = fit("mims", t, y, MIMS_TRUTH)
    for k in MIMS_TRUTH:
        assert res.stderr[k] < 1e-6


def test_duplicating_every_point_shrinks_stderr_sqrt2():
    t, y = _mims_data(noise=("multiplicative", 0.02), seed=21)
    res1 = fit("mims", t, y, MIMS_TRUTH)
    t2 = np.concatenate([t, t])
    y2 = np.concatenate([y, y])
    order = np.argsort(t2, kind="stable")
    res2 = fit("mims", t2[order], y2[order], MIMS_TRUTH)
    for k in MIMS_TRUTH:
        ratio = res1.stderr[k] / res2.stderr[k]
        assert ratio == pytest.approx(np.sqrt(2.0), rel=0.05)


def test_uncertainties_helper_and_covariance_diagonal():
    t, y = _mims_data(noise=("multiplicative", 0.02), seed=2)
    res = fit("mims", t, y, MIMS_TRUTH)
    diag = np.sqrt(np.diag(res.covariance))
    vec = np.array([res.stderr[n] for n in res.param_names])
    np.testing.assert_allclose(diag, vec, rtol=1e-12)
    # covariance is symmetric
    np.testing.assert_allclose(res.covariance, res.covariance.T, rtol=1e-10)


def test_degenerate_design_flags_unbounded_parameters():
    # constant t23 makes the log term and the saturating term constant,
    # indistinguishable from the base linewidth: the fit must say so
    t12 = np.linspace(0.0, 2.0, 12)
    x = np.column_stack([t12, np.full_like(t12, 500.0)])
    truth = {k: v for k, v in SD_7MK_009T.to_dict().items() if k != "t0_us"}
    y = models.sd_linewidth(SD_7MK_009T, t12, 500.0)
    res = fit("sd", x, y, truth, fixed={"t0_us": 50.0})
    unbounded = [f for f in res.flags if f.startswith("unbounded:")]
    assert unbounded, res.flags
    names = {f.split(":", 1)[1] for f in unbounded}
    assert "gamma0_khz" in names
    for n in names:
        assert np.isinf(res.stderr[n])


# ---------------------------------------------------------------------------
# solver bookkeeping
# ---------------------------------------------------------------------------

def test_sse_trace_monotone_decreasing():
    t, y = _mims_data(noise=("multiplicative", 0.02), seed=8)
    rng = np.random.default_rng(0)
    res = fit("mims", t, y, _jitter(MIMS_TRUTH, rng))
    trace = np.array(res.sse_trace)
    assert trace.size >= 2
    assert np.all(np.diff(trace) < 0)
    assert res.sse == trace[-1]


def test_refit_from_solution_is_a_fixed_point():
    # restarting at the optimum may still polish the last ulps of sse but
    # must not move parameters beyond the convergence tolerance scale
    t, y = _mims_data(noise=("multiplicative", 0.02), seed=9)
    res = fit("mims", t, y, MIMS_TRUTH)
    again = fit("mims", t, y, res.params)
    assert again.sse <= res.sse
    for k in MIMS_TRUTH:
        assert abs(again.params[k] - res.params[k]) <= 1e-9 * abs(res.params[k])


def test_positive_parameters_stay_positive():
    t, y = _mims_data(noise=("multiplicative", 0.1), seed=13)
    res = fit("mims", t, y, {"i0": 5.0, "tm_us": 3.0, "x": 0.5})
    assert res.params["i0"] > 0
    assert res.params["tm_us"] > 0
    assert 0.3 < res.params["x"] < 4.0


def test_window_masked_points_have_zero_influence():
    t, y = _mims_data(noise=("multiplicative", 0.02), seed=4)
    cfg = FitConfig(window=(0.25, 20.0))
    res_a = fit("mims", t, y, MIMS_TRUTH, cfg=cfg)
    y_mangled = y.copy()
    outside = (t < 0.25) | (t > 20.0)
    assert outside.any()
    y_mangled[outside] *= 37.5
    res_b = fit("mims", t, y_mangled, MIMS_TRUTH, cfg=cfg)
    assert res_a.params == res_b.params
    assert res_a.stderr == res_b.stderr
    assert res_a.sse == res_b.sse


def test_dof_counts_only_windowed_points():
    t, y = _mims_data(n=50)
    res = fit("mims", t, y, MIMS_TRUTH, cfg=FitConfig(window=(1.0, 10.0)))
    n_in = int(np.sum((t >= 1.0) & (t <= 10.0)))
    assert res.dof == n_in - 3


def test_log_space_rejects_nonpositive_intensity():
    t, y = _mims_data()
    y[5] = 0.0
    with pytest.raises(FitError):
        fit("mims", t, y, MIMS_TRUTH)


@pytest.mark.parametrize("array, why", [("x", "x values must be finite"),
                                        ("y", "y values must be finite"),
                                        ("sigma", "sigma values must be > 0")])
def test_non_finite_input_is_named(array, why):
    # a NaN in one field value, one of 14 scan values or one sigma is
    # named as such, not reported as a model that is not finite
    b = np.array(DEMO_FIELD_GRID_T)
    y = models.field_linewidth(FIELD_7MK, b, 0.007)
    data = {"x": b, "y": y, "sigma": 0.03 * y}
    data[array] = data[array].copy()
    data[array][5] = np.nan
    args = ("field", data["x"], data["y"], FIELD_7MK.to_dict())
    kw = dict(sigma=data["sigma"], fixed={"temp_k": 0.007})
    with pytest.raises(FitError) as exc:
        fit(*args, **kw)
    assert str(exc.value) == why
    with pytest.raises(FitError) as exc:
        multi_start_fit(*args, cfg=FitConfig(restarts=4), **kw)
    assert str(exc.value) == why


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(max_iterations=0)
    with pytest.raises(ValueError):
        FitConfig(window=(2.0, 1.0))
    for kwargs, why in (({"restarts": 0}, "restarts must be >= 1"),
                        # values of the wrong type, as a YAML config can
                        # give: each used to fail later as a bare TypeError
                        # or to be taken as it came
                        ({"restarts": 2.5}, "restarts must be an int, got 2.5"),
                        ({"restarts": True}, "restarts must be an int, got True"),
                        ({"max_iterations": "20"}, "max_iterations must be an int, got '20'"),
                        ({"seed": 1.5}, "seed must be an int, got 1.5"),
                        ({"seed": None}, "seed must be an int, got None")):
        with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
            FitConfig(**kwargs)
    # a negative seed is a valid int; it is drawn from only with restarts > 1
    assert FitConfig(seed=-1).seed == -1
    assert FitConfig(restarts=np.int64(3)).restarts == 3


@pytest.mark.parametrize("window", [
    5,                  # used to fail as a bare TypeError on unpacking
    "0.25:",
    (0.25,),
    (0.25, None, 1.0),
    (np.nan, 1.0),      # used to pass, and mask every point
    (0.25, np.inf),
    (True, None),       # a bool is not an edge
    ("0.25", None),
    (10 ** 400, None),  # an int beyond the float range
])
def test_window_is_none_or_a_pair_of_finite_edges(window):
    why = ("window must be None or a (lo, hi) pair whose edges are each None "
           f"or a finite number, got {window!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
        FitConfig(window=window)


def test_window_accepts_open_and_finite_edges():
    for window in (None, (None, None), (0.25, None), (None, 2), [0.1, 1.0],
                   (np.float64(0.5), np.int64(3))):
        assert FitConfig(window=window).window == window


def test_negative_seed_is_refused_where_starts_are_drawn():
    # numpy's generator refuses a negative seed without naming it; the
    # engine names it before it fits anything, and only when it draws the
    # jittered starts (a single start takes any int seed)
    t, y = _mims_data()
    with pytest.raises(ValueError, match=r"^seed must be >= 0 with restarts > 1, got -1$"):
        multi_start_fit("mims", t, y, MIMS_TRUTH, cfg=FitConfig(restarts=2, seed=-1))
    with pytest.raises(ValueError, match=r"^seed must be >= 0 with restarts > 1, got -3$"):
        multi_start_batch("mims", [], cfg=FitConfig(restarts=4, seed=-3))
    assert multi_start_fit("mims", t, y, MIMS_TRUTH,
                           cfg=FitConfig(restarts=1, seed=-7)).converged


@pytest.mark.parametrize("model_id, x, y, sigma, why", [
    ("sd", np.ones((6, 3)), np.ones(6), None,
     "model 'sd' expects (t12_us, t23_us) pairs"),
    ("mims", np.linspace(1.0, 6.0, 6), np.ones(5), None, "x and y lengths disagree"),
    ("mims", np.linspace(1.0, 6.0, 6), np.ones(6), np.ones(5),
     "sigma length disagrees with data"),
])
def test_input_of_the_wrong_shape_is_named(model_id, x, y, sigma, why):
    init = {n: 1.0 for n in CATALOG[model_id].param_names}
    fixed = {n: 1.0 for n in CATALOG[model_id].fixed_names}
    with pytest.raises(FitError) as exc:
        fit(model_id, x, y, init, sigma=sigma, fixed=fixed)
    assert str(exc.value) == why


def test_linear_space_fit_of_linewidth_scan():
    b = np.linspace(0.0, 2.0, 14)
    y = models.field_linewidth(FIELD_7MK, b, 0.007)
    res = fit("field", b, y, FIELD_7MK.to_dict(), fixed={"temp_k": 0.007})
    # linear residuals on a noiseless curve: essentially zero sse
    assert res.sse < 1e-18


def test_sigma_global_scale_cancels():
    # quoted errors come from (J^T W J)^-1 scaled by sse/dof, so a common
    # factor on every sigma changes neither the optimum nor the stderr
    t, y = _mims_data(noise=("multiplicative", 0.02), seed=30)
    sig = 0.02 * y
    res_a = fit("mims", t, y, MIMS_TRUTH, sigma=sig)
    res_b = fit("mims", t, y, MIMS_TRUTH, sigma=10 * sig)
    for k in MIMS_TRUTH:
        assert res_a.params[k] == pytest.approx(res_b.params[k], rel=1e-9)
        assert res_a.stderr[k] == pytest.approx(res_b.stderr[k], rel=1e-6)


def test_sigma_relative_pattern_reweights_fit():
    # inflating sigma on the tail must push the optimum toward the fit
    # that ignores the tail outright
    t, y = _mims_data(noise=("multiplicative", 0.02), seed=30)
    sig = 0.02 * y
    sig_tail = sig.copy()
    tail = t > 10.0
    assert tail.any() and (~tail).any()
    sig_tail[tail] *= 1e6
    res_uniform = fit("mims", t, y, MIMS_TRUTH, sigma=sig)
    res_tail = fit("mims", t, y, MIMS_TRUTH, sigma=sig_tail)
    res_window = fit("mims", t, y, MIMS_TRUTH, sigma=sig,
                     cfg=FitConfig(window=(None, 10.0)))
    assert res_tail.params["tm_us"] == pytest.approx(
        res_window.params["tm_us"], rel=1e-6)
    assert abs(res_tail.params["tm_us"] - res_uniform.params["tm_us"]) > 1e-6


# ---------------------------------------------------------------------------
# multi-start
# ---------------------------------------------------------------------------

def test_single_restart_equals_plain_fit():
    t, y = _mims_data(noise=("multiplicative", 0.02), seed=14)
    res_a = fit("mims", t, y, MIMS_TRUTH)
    res_b = multi_start_fit("mims", t, y, MIMS_TRUTH,
                            cfg=FitConfig(restarts=1))
    assert res_a.params == res_b.params
    assert res_b.n_restarts_agreeing == 1
    # fit is one start whatever cfg.restarts says, and one start draws no
    # jitter, so a seed that NumPy would reject is never used
    res_c = fit("mims", t, y, MIMS_TRUTH, cfg=FitConfig(restarts=4, seed=-1))
    assert (res_c.params, res_c.sse_trace) == (res_a.params, res_a.sse_trace)
    assert res_c.n_restarts_agreeing == 1


def test_multi_start_recovers_from_poor_init():
    t, y = _mims_data(noise=("multiplicative", 0.02), seed=15)
    ref = fit("mims", t, y, MIMS_TRUTH)
    poor = {"i0": 8.0, "tm_us": 400.0, "x": 0.45}
    res = multi_start_fit("mims", t, y, poor,
                          cfg=FitConfig(restarts=6, seed=2))
    assert res.sse <= ref.sse * 1.001
    assert res.n_restarts_agreeing >= 2


def test_multi_start_all_failures_raise():
    t, y = _mims_data()
    y = -y  # negative intensities cannot enter a log-space fit
    with pytest.raises(FitError):
        multi_start_fit("mims", t, y, MIMS_TRUTH,
                        cfg=FitConfig(restarts=3, seed=0))


def _plain_lm(model_id, x, y, init, cfg, fixed):
    """One LM fit written with plain 2-D NumPy (j.T @ j, r @ r, one solve),
    for well-behaved data: the arithmetic the lockstep engine must keep.
    Returns (params, sse_trace, n_iterations, stop reason), the reason one
    of "grad", "step", "sse", "saturated" or "max-iterations"."""
    spec = CATALOG[model_id]
    x, y, w = _prepare(spec, x, y, None, cfg)
    space = spec.space
    terms = spec.prepare(x, fixed)

    def residuals(theta):
        m = spec.eval_fn(theta, terms)
        if space == "log-intensity":
            return w * (np.log(m) - np.log(y)), m
        return w * (m - y), m

    def jacobian(theta, m):
        jn = spec.jac_fn(theta, terms)[1]
        if space == "log-intensity":
            jn = jn / m[:, None]
        return w[:, None] * jn * dnatural_dinternal(spec, theta)[None, :]

    u = to_internal(spec, np.array([float(init[n]) for n in spec.param_names]))
    theta = to_natural(spec, u)
    r, m = residuals(theta)
    sse = float(r @ r)
    j = jacobian(theta, m)
    lam = 1e-3 * float((j * j).sum(axis=0).max())
    trace = [sse]
    reason = "max-iterations"
    for it in range(1, cfg.max_iterations + 1):
        g = j.T @ r
        if np.abs(g).max() < fitting._TOL_GRAD:
            reason = "grad"
            break
        step = np.linalg.solve(j.T @ j + lam * np.eye(u.size), -g)
        if np.abs(step).max() <= fitting._TOL_STEP * (1.0 + np.abs(u).max()):
            reason = "step"
            break
        theta_try = to_natural(spec, u + step)
        r_try, m_try = residuals(theta_try)
        sse_try = float(r_try @ r_try)
        if sse_try < sse:
            drop = sse - sse_try
            u, theta, r, m, sse = u + step, theta_try, r_try, m_try, sse_try
            trace.append(sse)
            j = jacobian(theta, m)
            lam = max(lam / 3.0, 1e-15)
            if drop <= fitting._TOL_SSE_REL * sse:
                reason = "sse"
                break
        else:
            lam = min(lam * 3.0, 1e12)
            if lam >= 1e12:
                reason = "saturated"
                break
    return dict(zip(spec.param_names, theta.tolist())), trace, it, reason


# Stop reasons of _plain_lm that a fit reports as converged.
_CONVERGED = ("grad", "step", "sse")


def _assert_best_of_single_starts(res, model_id, x, y, init, cfg, fixed):
    """``res`` must equal, bit for bit, the lowest-SSE plain fit among the
    starts that multi-start derives from ``init``; each plain fit must in
    turn match the 2-D NumPy loop."""
    spec = CATALOG[model_id]
    singles = []
    init = np.array([init[n] for n in spec.param_names], dtype=float)
    for start in _starts(spec, init, _jitter_factors(spec, cfg)):
        start = dict(zip(spec.param_names, start.tolist()))
        try:
            single = fit(model_id, x, y, start, cfg=cfg, fixed=fixed)
        except FitError:
            continue
        params, trace, iterations, reason = _plain_lm(model_id, x, y, start, cfg, fixed)
        assert (single.params, single.sse_trace, single.n_iterations, single.converged) == \
            (params, trace, iterations, reason in _CONVERGED)
        singles.append(single)
    best = min(singles, key=lambda r: r.sse)
    assert res.params == best.params
    assert res.sse == best.sse
    assert res.n_iterations == best.n_iterations
    assert res.sse_trace == best.sse_trace
    assert res.flags == best.flags


def _noisy_mims_optimum():
    """Noisy mims data and the parameters a default fit ends at."""
    t, y = _mims_data(noise=("multiplicative", 0.02), seed=14)
    return t, y, fit("mims", t, y, MIMS_TRUTH).params


def _scaled(params, factor):
    return {k: v * factor for k, v in params.items()}


FAR_MIMS_START = {"i0": 2.0, "tm_us": 10.0, "x": 0.8}


def _set_tolerances(monkeypatch, **tolerances):
    """Replace the engine's stop tolerances (``grad``, ``step``,
    ``sse_rel``) for one test, as the 0-d arrays the engine keeps."""
    for name, value in tolerances.items():
        monkeypatch.setattr(fitting, f"_TOL_{name.upper()}", np.array(value))


def _stop_cases():
    """(name, x, y, init, cfg, stop tolerances, stop reason, iteration) of
    single mims fits that end in each stop branch of the engine."""
    t0, y0 = _mims_data()
    t, y, opt = _noisy_mims_optimum()
    return [
        ("start at the noiseless truth", t0, y0, MIMS_TRUTH, FitConfig(), {}, "grad", 1),
        ("step shrinks below tol_step", t, y, _scaled(opt, 1 + 1e-4),
         FitConfig(), {"step": 1e-6}, "step", 3),
        ("sse drop below tol_sse_rel", t, y, FAR_MIMS_START, FitConfig(), {}, "sse", 6),
        ("max_iterations=3", t, y, FAR_MIMS_START, FitConfig(max_iterations=3), {},
         "max-iterations", 3),
        ("damping saturates at the optimum", t, y, opt, FitConfig(),
         {"grad": 1e-300, "step": 1e-300, "sse_rel": 1e-300}, "saturated", 34),
    ]


@pytest.mark.parametrize("case", range(5))
def test_each_stop_branch_equals_the_plain_loop(case, monkeypatch):
    name, x, y, init, cfg, tolerances, reason, iterations = _stop_cases()[case]
    _set_tolerances(monkeypatch, **tolerances)
    params, trace, it, plain_reason = _plain_lm("mims", x, y, init, cfg, {})
    assert (plain_reason, it) == (reason, iterations), name
    res = fit("mims", x, y, init, cfg=cfg)
    assert (res.params, res.sse_trace, res.n_iterations, res.converged) == \
        (params, trace, it, reason in _CONVERGED), name
    assert ("not-converged" in res.flags) == (reason not in _CONVERGED)


def test_rows_stopping_by_different_branches_in_one_iteration(monkeypatch):
    # the grad-tol and step-tol tests share one write-out, and the sse-tol
    # test has its own, all in iteration 1; a far start keeps stepping
    t0, y0 = _mims_data()
    t, y, opt = _noisy_mims_optimum()
    _set_tolerances(monkeypatch, step=1e-6, sse_rel=1e-4)
    cfg = FitConfig()
    problems = [(t0, y0, MIMS_TRUTH, None, None),
                (t, y, _scaled(opt, 1 + 1e-8), None, None),
                (t, y, _scaled(opt, 1 + 1e-5), None, None),
                (t, y, FAR_MIMS_START, None, None)]
    stops = [_plain_lm("mims", x, yy, init, cfg, {})[2:] for x, yy, init, *_ in problems]
    assert stops[:3] == [(1, "grad"), (1, "step"), (1, "sse")]
    assert stops[3][0] > 1
    for res, (x, yy, init, *_) in zip(multi_start_batch("mims", problems, cfg=cfg), problems):
        lone = fit("mims", x, yy, init, cfg=cfg)
        assert (res.params, res.sse, res.n_iterations, res.sse_trace, res.converged,
                res.flags) == (lone.params, lone.sse, lone.n_iterations, lone.sse_trace,
                               lone.converged, lone.flags)


@pytest.mark.parametrize("model_id", sorted(CATALOG))
def test_lockstep_restarts_equal_their_single_fits(model_id):
    # the restarts run as one batch; each must behave as if run alone
    spec = CATALOG[model_id]
    truth, x, fixed = _registry_case(model_id)
    y0 = spec.eval_fn(np.array([truth[n] for n in spec.param_names]),
                      spec.prepare(x, fixed))
    y = y0 * (1.0 + 0.02 * np.random.default_rng(31).standard_normal(y0.shape))
    init = initial_guess(model_id, x, y, fixed).params
    cfg = FitConfig(restarts=4, seed=5)
    res = multi_start_fit(model_id, x, y, init, cfg=cfg, fixed=fixed)
    _assert_best_of_single_starts(res, model_id, x, y, init, cfg, fixed)


def _demo_3ppe_problem(seed=1):
    """The demo's joint 3x250-point stimulated-echo data set."""
    traces, _ = _demo_3ppe_traces(seed)
    x = np.concatenate([np.column_stack([np.full(tr.n_points, tr.t12_us), tr.time_us])
                        for tr in traces])
    y = np.concatenate([tr.intensity for tr in traces])
    return traces, x, y


def test_lockstep_restarts_on_the_demo_echo3_set():
    # 750 points: large enough that a copied transpose in J^T J takes a
    # different BLAS path and changes the iteration count
    _, x, y = _demo_3ppe_problem()
    fixed = {"t1_ms": THREE_LEVEL_7MK_009T.t1_ms,
             "tz_s": THREE_LEVEL_7MK_009T.tz_s, "t0_us": float(x[:, 1].min())}
    init = initial_guess("echo3", x, y, fixed).params
    cfg = FitConfig(restarts=4, seed=14)
    res = multi_start_fit("echo3", x, y, init, cfg=cfg, fixed=fixed)
    _assert_best_of_single_starts(res, "echo3", x, y, init, cfg, fixed)


@pytest.mark.parametrize("tz_s", [THREE_LEVEL_7MK_009T.tz_s, 0.009])
def test_free_t1_batch_fit_chooses_the_degenerate_branch_per_row(tz_s):
    # T1 is a (B, 1) column across the restarts; with tz = 9 ms the first
    # start (T1 guess 9 ms) takes the T_Z = T_1 limit and the others do not
    traces, x, y = _demo_3ppe_problem()
    cfg = FitConfig(restarts=4, seed=14)
    tables, fits = batch_fit_3ppe(traces, cfg=cfg, fixed={"free_t1": True, "tz_s": tz_s})
    assert fits[0] is not None, tables["beta"].flag[0]
    fixed = {"tz_s": tz_s, "t0_us": float(x[:, 1].min())}
    init = initial_guess("echo3-free-t1", x, y, fixed).params
    _assert_best_of_single_starts(fits[0], "echo3-free-t1", x, y, init, cfg, fixed)


def test_window_on_a_two_column_model_is_refused_before_fitting(monkeypatch):
    # a window masks one time axis; on (t12, t23) pairs it used to be
    # dropped without a word, and all 750 points fitted
    def no_fit(*args):
        raise AssertionError("fitted")
    monkeypatch.setattr(fitting, "_lm", no_fit)
    traces, x, y = _demo_3ppe_problem()
    fixed = {"t1_ms": THREE_LEVEL_7MK_009T.t1_ms,
             "tz_s": THREE_LEVEL_7MK_009T.tz_s, "t0_us": float(x[:, 1].min())}
    init = initial_guess("echo3", x, y, fixed).params
    cfg = FitConfig(restarts=1, window=(1000.0, None))
    why = ("window (1000.0, None) applies to one-axis models only, not to 'echo3', "
           "which fits (t12_us, t23_us) pairs")
    with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
        multi_start_fit("echo3", x, y, init, cfg=cfg, fixed=fixed)
    with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
        batch_fit_3ppe(traces, cfg=cfg)


# ---------------------------------------------------------------------------
# initial guesses
# ---------------------------------------------------------------------------

def test_mims_guess_within_factor_three():
    t, y = _mims_data(noise=("multiplicative", 0.02), seed=16)
    g = initial_guess("mims", t, y)
    assert not g.degenerate
    for k, v in MIMS_TRUTH.items():
        assert v / 3 < g.params[k] < 3 * v


def test_field_guess_within_factor_three():
    b = np.array([0.0, 0.01, 0.02, 0.04, 0.07, 0.1, 0.14, 0.2, 0.3, 0.5,
                  0.8, 1.2, 1.6, 2.0])
    y = models.field_linewidth(FIELD_7MK, b, 0.007)
    g = initial_guess("field", b, y, {"temp_k": 0.007})
    assert not g.degenerate
    truth = FIELD_7MK.to_dict()
    for k, v in truth.items():
        assert v / 3 < g.params[k] < 3 * v, (k, g.params[k], v)


@pytest.mark.parametrize("model_id", ["field", "sech2"])
@pytest.mark.parametrize("fixed, why", [
    (None, "model '{}' needs fixed values for ['temp_k']"),
    ({}, "model '{}' needs fixed values for ['temp_k']"),
    ({"temp_k": np.nan}, "fixed value temp_k must be a finite number, got nan"),
    ({"temp_k": "cold"}, "fixed value temp_k must be a finite number, got 'cold'"),
])
def test_field_guesses_read_the_temperature_by_the_number_rule(model_id, fixed, why):
    # the guesses used to start from a 7 mK curve when temp_k was missing,
    # while the fit itself refused the scan
    b = np.array([0.0, 0.02, 0.1, 0.3, 0.8, 1.6, 2.0])
    y = models.field_linewidth(FIELD_7MK, b, 0.3)
    with pytest.raises(FitError, match=f"^{re.escape(why.format(model_id))}$"):
        initial_guess(model_id, b, y, fixed)
    assert initial_guess(model_id, b, y, {"temp_k": 0.3}).params


def test_guess_then_fit_converges_to_truth():
    b = np.array([0.0, 0.01, 0.02, 0.04, 0.07, 0.1, 0.14, 0.2, 0.3, 0.5,
                  0.8, 1.2, 1.6, 2.0])
    y = models.field_linewidth(FIELD_7MK, b, 0.007)
    g = initial_guess("field", b, y, {"temp_k": 0.007})
    res = fit("field", b, y, g.params, fixed={"temp_k": 0.007})
    for k, v in FIELD_7MK.to_dict().items():
        assert abs(res.params[k] - v) / v < 1e-6


def _registry_case(model_id):
    """Noiseless data at the preset truths: (truth, x, fixed)."""
    field_grid = np.array([0.0, 0.01, 0.02, 0.04, 0.07, 0.1, 0.14, 0.2, 0.3,
                           0.5, 0.8, 1.2, 1.6, 2.0])
    t23 = build_grid((50.0, 7500.0, 60, "log"))
    pairs = np.column_stack([np.repeat(T12_SET_US, t23.size),
                             np.tile(t23, len(T12_SET_US))])
    sd = {k: v for k, v in SD_7MK_009T.to_dict().items() if k != "t0_us"}
    tl = THREE_LEVEL_7MK_009T
    echo3 = dict(sd, i0=tl.i0, beta=tl.beta)
    return {
        "mims": (MIMS_TRUTH, build_grid((0.25, 30.0, 50, "log")), {}),
        "field": (FIELD_7MK.to_dict(), field_grid, {"temp_k": 0.007}),
        "temp": (TEMP_009T.to_dict(), build_grid((0.007, 0.55, 25, "log")), {}),
        "sech2": ({"gamma_max_khz": SD_7MK_009T.gamma_sd_khz, "g": 0.05},
                  field_grid, {"temp_k": 0.007}),
        "sd": (sd, pairs, {"t0_us": SD_7MK_009T.t0_us}),
        "echo3": (echo3, pairs, {"t1_ms": tl.t1_ms, "tz_s": tl.tz_s,
                                 "t0_us": SD_7MK_009T.t0_us}),
        "echo3-free-t1": (dict(echo3, t1_ms=tl.t1_ms), pairs,
                          {"tz_s": tl.tz_s, "t0_us": SD_7MK_009T.t0_us}),
    }[model_id]


@pytest.mark.parametrize("model_id", sorted(CATALOG))
def test_every_model_guess_names_its_parameters_and_fits(model_id):
    spec = CATALOG[model_id]
    truth, x, fixed = _registry_case(model_id)
    theta = np.array([truth[n] for n in spec.param_names])
    y = spec.eval_fn(theta, spec.prepare(x, fixed))
    g = initial_guess(model_id, x, y, fixed)
    assert tuple(g.params) == spec.param_names
    res = fit(model_id, x, y, g.params, fixed=fixed)
    assert res.converged, (model_id, res.flags)
    for k, v in truth.items():
        assert abs(res.params[k] - v) / v < 1e-6, (model_id, k)


def test_flat_trace_guess_is_degenerate():
    t = np.linspace(0.25, 30.0, 20)
    y = np.full_like(t, 0.8)
    g = initial_guess("mims", t, y)
    assert g.degenerate


def test_guess_requires_three_points():
    with pytest.raises(ValueError):
        initial_guess("mims", np.array([1.0, 2.0]), np.array([1.0, 0.5]))


def test_echo3_guess_needs_two_t12_groups():
    t23 = build_grid((50.0, 7500.0, 30, "log"))
    x = np.column_stack([np.full_like(t23, 0.33), t23])
    tl = THREE_LEVEL_7MK_009T
    y = models.stimulated_echo_intensity(tl, SD_7MK_009T, 0.33, t23)
    g = initial_guess("echo3", x, y,
                      {"t1_ms": 9.0, "tz_s": 2.0, "t0_us": 50.0})
    assert g.degenerate  # single t12 cannot anchor the dephasing scale


# ---------------------------------------------------------------------------
# non-finite starts, jitter draws, batches and a differential check
# ---------------------------------------------------------------------------

def _temp_data():
    """Noiseless temperature-law linewidths, 7.6 to 28 kHz."""
    t = build_grid((0.007, 0.55, 25, "log"))
    return t, models.temp_linewidth(TEMP_009T, t)


def test_start_with_overflowing_sse_is_not_fitted():
    # a floor near the float maximum: the relative residuals are finite but
    # their squares overflow, so every start counts as not finite
    t, y = _temp_data()
    init = {"floor_khz": 1.2e308, "amp_khz": 45.0, "exponent_n": 1.34}
    cfg = FitConfig(restarts=6)
    with np.errstate(over="ignore"):
        with pytest.raises(FitError, match="^model is not finite at the initial parameters$"):
            multi_start_fit("temp", t, y, init, cfg=cfg)
        with pytest.raises(FitError, match="model is not finite"):
            fit("temp", t, y, init, cfg=cfg)


@pytest.mark.filterwarnings("error")
def test_overflowing_start_fails_without_warnings():
    # the engine rejects or fails non-finite rows itself, so the overflows
    # on the way there are not reported as warnings
    t, y = _temp_data()
    init = {"floor_khz": 1.2e308, "amp_khz": 45, "exponent_n": 1.34}
    cfg = FitConfig(restarts=6)
    with pytest.raises(FitError) as exc:
        multi_start_fit("temp", t, y, init, cfg=cfg)
    assert str(exc.value) == "model is not finite at the initial parameters"


def test_only_the_finite_starts_of_a_start_set_are_fitted():
    # a floor near the square root of the float maximum: seed 12 jitters it
    # by 0.66, 0.61 and 1.04, so the relative SSE of the first and last
    # start overflows and those of the middle two do not; the best finite
    # start wins as if fitted alone
    t, y = _temp_data()
    init = {"floor_khz": 10 ** 154.5, "amp_khz": 45.0, "exponent_n": 1.34}
    cfg = FitConfig(restarts=4, seed=12)
    spec = CATALOG["temp"]
    lone = []
    for start in _starts(spec, np.array([init[n] for n in spec.param_names]),
                         _jitter_factors(spec, cfg)):
        try:
            lone.append(fit("temp", t, y, dict(zip(spec.param_names, start.tolist())),
                            cfg=cfg))
        except FitError as exc:
            assert str(exc) == "model is not finite at the initial parameters"
            lone.append(None)
    assert [r is not None for r in lone] == [False, True, True, False]
    res = multi_start_fit("temp", t, y, init, cfg=cfg)
    best = min((r for r in lone if r is not None), key=lambda r: r.sse)
    assert (res.params, res.sse, res.n_iterations, res.sse_trace, res.flags) == \
        (best.params, best.sse, best.n_iterations, best.sse_trace, best.flags)


def test_covariance_of_an_overflowed_jacobian_bounds_nothing():
    j = np.ones((10, 3))
    j[4, 1] = np.inf
    cov, stderr, unbounded = _covariance(j, sse=1.0, dof=7)
    assert np.all(np.isnan(cov))
    assert np.all(np.isinf(stderr))
    assert unbounded == [0, 1, 2]


@pytest.mark.parametrize("p", [3, 5, 6, 7])
def test_jitter_factors_equal_one_scalar_draw_at_a_time(p):
    spec = next(s for s in CATALOG.values() if len(s.params) == p)
    for seed in range(50):
        cfg = FitConfig(restarts=4, seed=seed)
        rng = np.random.default_rng(seed)
        scalar = [[float(np.exp(rng.uniform(np.log(0.5), np.log(1.5))))
                   for _ in range(p)] for _ in range(1, cfg.restarts)]
        assert _jitter_factors(spec, cfg) == scalar
    assert _jitter_factors(spec, FitConfig(restarts=1)) == []


def _batch_problem(model_id, kind, n, seed, with_sigma, temp_k):
    """An (x, y, init, sigma, fixed) problem: "ok" data on an n-point grid,
    a "short" one with too few points, or "negative" data, which a
    log-space (mims) fit rejects.  A field problem is a scan at ``temp_k``
    with that as its own fixed value; mims has no fixed values."""
    rng = np.random.default_rng(seed)
    n = 3 if kind == "short" else n
    if model_id == "mims":
        truth, fixed = _jitter(MIMS_TRUTH, rng), None
        x = build_grid((0.25, 30.0, n, "log"))
    else:
        truth, fixed = _jitter(FIELD_7MK.to_dict(), rng), {"temp_k": temp_k}
        x = np.concatenate([[0.0], np.geomspace(0.01, 2.0, n - 1)])
    spec = CATALOG[model_id]
    y = spec.eval_fn(np.array([truth[k] for k in spec.param_names]), spec.prepare(x, fixed))
    y = y * (1.0 + 0.02 * rng.standard_normal(x.size))
    if kind == "negative":
        y = -y
    sigma = 0.02 * np.abs(y) * rng.uniform(0.5, 2.0, x.size) if with_sigma else None
    return x, y, _jitter(truth, rng), sigma, fixed


def _batch_case(model_id):
    """A model, its problems' specs and a window.  Field grids have 14 or
    20 points, so problems at different temperatures share a lockstep
    group."""
    sizes = {"mims": [12, 20, 35], "field": [14, 20]}[model_id]
    windows = {"mims": [None, (0.5, 25.0), (2.0, None)],
               "field": [None, (0.01, None), (None, 1.5)]}[model_id]
    spec = st.tuples(st.sampled_from(["ok", "ok", "ok", "short", "negative"]),
                     st.sampled_from(sizes), st.integers(0, 2**16), st.booleans(),
                     st.sampled_from([0.005, 0.007, 0.02, 0.1]))
    return st.tuples(st.just(model_id), st.lists(spec, min_size=1, max_size=6),
                     st.sampled_from(windows))


@given(st.sampled_from(["mims", "field"]).flatmap(_batch_case), st.integers(1, 5),
       st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_batch_entries_equal_their_lone_fits(case, restarts, seed):
    # rows of different problems stop at different iterations and leave
    # the live set in any order; no row may see another's state, and each
    # row's fixed values are its own.  Problems without sigma have unit
    # weights in log space, which the engine leaves out unless a problem
    # with sigma shares their batch.
    model_id, specs, window = case
    problems = [_batch_problem(model_id, *s) for s in specs]
    cfg = FitConfig(restarts=restarts, seed=seed, window=window)
    for res, (x, y, init, sigma, fixed) in zip(multi_start_batch(model_id, problems, cfg=cfg),
                                               problems):
        try:
            lone = multi_start_fit(model_id, x, y, init, sigma=sigma, cfg=cfg, fixed=fixed)
        except ValueError as exc:
            assert isinstance(res, type(exc)) and str(res) == str(exc)
            continue
        assert (res.params, res.sse, res.n_iterations, res.sse_trace, res.flags,
                res.fixed) == (lone.params, lone.sse, lone.n_iterations, lone.sse_trace,
                               lone.flags, lone.fixed)


def _assert_same_fit(res, lone):
    """Every field of two FitResults, arrays by their bytes."""
    assert (res.params, res.stderr, res.sse, res.dof, res.converged, res.n_iterations,
            res.n_restarts_agreeing, res.sse_trace, res.flags, res.fixed) == (
        lone.params, lone.stderr, lone.sse, lone.dof, lone.converged, lone.n_iterations,
        lone.n_restarts_agreeing, lone.sse_trace, lone.flags, lone.fixed)
    assert res.covariance.tobytes() == lone.covariance.tobytes()
    assert res.residuals.tobytes() == lone.residuals.tobytes()


def test_bad_fixed_value_fails_only_its_problem():
    # a fixed value that is not a number used to raise out of the whole
    # batch when the rows were stacked, a NaN one failed every start as a
    # model that is not finite, and an int beyond the float range raised
    # OverflowError out of the whole batch from the finite-number check
    x, y, init, fixed = _invariant_problem("field", 3)
    cfg = FitConfig(restarts=3, seed=5)
    cold, good, nan, huge = multi_start_batch(
        "field", [(x, y, init, None, {"temp_k": "cold"}), (x, y, init, None, fixed),
                  (x, y, init, None, {"temp_k": np.nan}),
                  (x, y, init, None, {"temp_k": 10 ** 400})], cfg=cfg)
    _assert_same_fit(good, multi_start_fit("field", x, y, init, cfg=cfg, fixed=fixed))
    for res, shown in ((cold, "'cold'"), (nan, "nan"), (huge, repr(10 ** 400))):
        assert isinstance(res, FitError)
        assert f"fixed value temp_k must be a finite number, got {shown}" in str(res)
    with pytest.raises(FitError, match="fixed value temp_k must be a finite number, got inf"):
        fit("field", x, y, init, fixed={"temp_k": np.inf})
    # a bool is not a number to the engine, as it is not an edge of a window
    with pytest.raises(FitError, match="fixed value temp_k must be a finite number, got True"):
        fit("field", x, y, init, fixed={"temp_k": True})


def test_bad_init_fails_only_its_problem():
    # a missing key used to escape the batch as KeyError, a None as
    # TypeError, a string, with more than one start, as TypeError, and an
    # int beyond the float range as OverflowError
    x, y, init, fixed = _invariant_problem("mims", 4)
    cfg = FitConfig(restarts=3, seed=5)
    missing = {k: v for k, v in init.items() if k != "x"}
    bad = [(missing, "model 'mims' needs init values for ['x']"),
           ({**init, "tm_us": None}, "init value tm_us must be a finite number, got None"),
           ({**init, "i0": "1"}, "init value i0 must be a finite number, got '1'"),
           ({**init, "x": np.nan}, "init value x must be a finite number, got nan"),
           ({**init, "tm_us": 10 ** 400},
            f"init value tm_us must be a finite number, got {10 ** 400!r}")]
    results = multi_start_batch("mims", [(x, y, b, None, fixed) for b, _ in bad[:2]]
                                + [(x, y, init, None, fixed)]
                                + [(x, y, b, None, fixed) for b, _ in bad[2:]], cfg=cfg)
    good = results.pop(2)
    _assert_same_fit(good, multi_start_fit("mims", x, y, init, cfg=cfg, fixed=fixed))
    for res, (b, text) in zip(results, bad):
        assert isinstance(res, FitError)
        assert str(res) == text
        with pytest.raises(FitError) as exc:
            fit("mims", x, y, b, fixed=fixed)
        assert str(exc.value) == text


def _damped_reference(a, lam, g):
    """np.linalg.solve on the stack (a + lam I) step = -g, and on its
    rows one by one, with least squares for a singular row, when the
    stack is singular."""
    damped = a + lam[:, None, None] * np.eye(a.shape[-1])
    try:
        return np.linalg.solve(damped, -g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(g)
        for k in range(len(g)):
            try:
                out[k] = np.linalg.solve(damped[k], -g[k])
            except np.linalg.LinAlgError:
                out[k] = np.linalg.lstsq(damped[k], -g[k], rcond=None)[0]
        return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", range(2, 8))
def test_damped_solve_equals_numpy_solve(p):
    # the engine calls the gesv gufunc under np.linalg.solve directly
    rng = np.random.default_rng(p)
    for b in range(1, 9):
        j = rng.standard_normal((b, 3 * p, p))
        a = np.matmul(j.transpose(0, 2, 1), j)
        lam = 10.0 ** rng.uniform(-15, 2, b)
        g = rng.standard_normal((b, p))
        step = _damped_solve(a.copy(), lam, g)
        assert step.tobytes() == _damped_reference(a, lam, g).tobytes()
        # a row with an infinite entry; then a singular row beside it,
        # which sends the stack to the row-by-row fallback
        a[-1, 0, -1] = np.inf
        step = _damped_solve(a.copy(), lam, g)
        assert step.tobytes() == _damped_reference(a, lam, g).tobytes()
        a[0] = 1.0
        lam[0] = 0.0
        step = _damped_solve(a.copy(), lam, g)
        assert step.tobytes() == _damped_reference(a, lam, g).tobytes()
        assert np.all(np.isfinite(step[0]))


@pytest.mark.parametrize("model_id", sorted(CATALOG))
def test_transforms_equal_the_per_column_formulas(model_id):
    # the log rule runs on the whole array and the logit columns are then
    # overwritten; a (p,) vector or a (B, p) stack gives the bytes of the
    # per-column formulas, special values included
    spec = CATALOG[model_id]
    rng = np.random.default_rng(17)
    p = len(spec.params)
    theta = np.exp(rng.uniform(-30, 30, (9, p)))
    for k, ps in enumerate(spec.params):
        if ps.transform == "logit":
            width = ps.hi - ps.lo
            theta[1:, k] = rng.uniform(ps.lo - 0.2 * width, ps.hi + 0.2 * width, 8)
            theta[1:3, k] = ps.lo, ps.hi
    theta[0] = [0.0, 1e-300, -2.0, np.inf, 5e-10, np.nan, 1e300][:p]
    for t in (theta, theta[0], theta[3]):
        u_ref, natural, d_ref = np.empty_like(t), np.empty_like(t), np.empty_like(t)
        for k, ps in enumerate(spec.params):
            c = t[..., k]
            if ps.transform == "log":
                u_ref[..., k] = np.log(np.maximum(c, 1e-9 * np.maximum(1.0, np.abs(c))))
                d_ref[..., k] = c
            else:
                width = ps.hi - ps.lo
                q = np.clip(c, ps.lo + 1e-9 * width, ps.hi - 1e-9 * width)
                u_ref[..., k] = np.log((q - ps.lo) / (ps.hi - q))
                d_ref[..., k] = (c - ps.lo) * (ps.hi - c) / (ps.hi - ps.lo)
        u = to_internal(spec, t)
        assert (u.shape, u.tobytes()) == (u_ref.shape, u_ref.tobytes())
        for k, ps in enumerate(spec.params):
            if ps.transform == "log":
                natural[..., k] = np.exp(u[..., k])
            else:
                natural[..., k] = ps.lo + (ps.hi - ps.lo) * (1.0 / (1.0 + np.exp(-u[..., k])))
        assert to_natural(spec, u).tobytes() == natural.tobytes()
        d = dnatural_dinternal(spec, t)
        assert (d.shape, d.tobytes()) == (d_ref.shape, d_ref.tobytes())
        assert not np.shares_memory(d, t)


def _invariant_problem(model_id, seed):
    """(x, y, init, fixed) of a noisy mims decay or 14-point field scan,
    with jittered truth and a start jittered from it."""
    rng = np.random.default_rng(seed)
    if model_id == "mims":
        truth, fixed = _jitter(MIMS_TRUTH, rng), {}
        x = build_grid((0.25, 30.0, int(rng.integers(12, 51)), "log"))
    else:
        truth, fixed = _jitter(FIELD_7MK.to_dict(), rng), {"temp_k": 0.007}
        x = np.array(DEMO_FIELD_GRID_T)
    spec = CATALOG[model_id]
    y = spec.eval_fn(np.array([truth[n] for n in spec.param_names]), spec.prepare(x, fixed))
    y = y * (1.0 + 0.03 * rng.standard_normal(y.shape))
    return x, y, _jitter(truth, rng, frac=0.5), fixed


def _assert_within(params, expected, rtol):
    for k, v in expected.items():
        assert abs(params[k] - v) <= rtol * abs(v), (k, params[k], v)


def _converged_fit(model_id, x, y, init, fixed):
    """The fit of one start, or None when it fails or does not converge
    (then there is no minimum to compare)."""
    try:
        res = fit(model_id, x, y, init, fixed=fixed)
    except FitError:
        return None
    return res if res.converged else None


# Two fits of one problem stop where the SSE is flat to its rounding, so
# they agree to about 1e-8 relative, not to 1e-9 (see the FOUND entry on
# the fitter invariants in CHANGES.md); each invariant is checked at 1e-7
# and, on a case pinned as an example, held as a strict xfail at 1e-9.
_STOP_SPREAD = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="FOUND: converged fits of one problem agree to ~1e-8, not 1e-9")


@pytest.mark.parametrize("rtol", [1e-7, pytest.param(1e-9, marks=_STOP_SPREAD)])
@given(st.sampled_from(["mims", "field"]), st.integers(0, 2**16), st.integers(0, 2**16))
@example("field", 116, 0)   # 8.8e-9 apart
@settings(max_examples=40, deadline=None)
def test_point_order_does_not_move_the_fit(rtol, model_id, data_seed, order_seed):
    # not bit for bit: the sums over the points reorder
    x, y, init, fixed = _invariant_problem(model_id, data_seed)
    res = _converged_fit(model_id, x, y, init, fixed)
    assume(res is not None)
    order = np.random.default_rng(order_seed).permutation(x.size)
    shuffled = fit(model_id, x[order], y[order], init, fixed=fixed)
    assert shuffled.converged
    _assert_within(shuffled.params, res.params, rtol)


@pytest.mark.parametrize("rtol", [1e-7, pytest.param(1e-9, marks=_STOP_SPREAD)])
@given(st.integers(0, 2**16), st.floats(1e-3, 1e3))
@example(194, 1e3)          # 6.1e-9 apart in x
@settings(max_examples=40, deadline=None)
def test_scaling_a_decay_scales_only_its_i0(rtol, data_seed, c):
    # in log-intensity space c * y shifts every residual's target by log c,
    # which i0 -> c * i0 absorbs
    x, y, init, _ = _invariant_problem("mims", data_seed)
    res = _converged_fit("mims", x, y, init, {})
    assume(res is not None)
    scaled = fit("mims", x, c * y, {**init, "i0": c * init["i0"]})
    assert scaled.converged
    _assert_within(scaled.params, {**res.params, "i0": c * res.params["i0"]}, rtol)


@given(st.sampled_from(["mims", "field"]), st.integers(0, 2**16), st.integers(1, 5),
       st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_multi_start_is_never_worse_than_its_first_start(model_id, data_seed, restarts,
                                                         seed):
    x, y, init, fixed = _invariant_problem(model_id, data_seed)
    cfg = FitConfig(restarts=restarts, seed=seed)
    try:
        first = fit(model_id, x, y, init, cfg=cfg, fixed=fixed)
    except FitError:
        return  # the other starts may still fit; nothing to compare
    best = multi_start_fit(model_id, x, y, init, cfg=cfg, fixed=fixed)
    assert best.sse <= first.sse


@pytest.mark.parametrize("model_id", sorted(CATALOG))
def test_fit_agrees_with_scipy_levenberg_marquardt(model_id):
    # the same internal-space residuals, minimised by MINPACK's LM
    least_squares = pytest.importorskip("scipy.optimize").least_squares
    spec = CATALOG[model_id]
    truth, x, fixed = _registry_case(model_id)
    terms = spec.prepare(x, fixed)
    y = spec.eval_fn(np.array([truth[n] for n in spec.param_names]), terms)
    # Started near the truth: from the data-driven guess MINPACK ends in
    # another local minimum of the echo3 fit (SSE 0.016, i0 0.9994).
    init = _jitter(truth, np.random.default_rng(3), frac=0.2)
    res = fit(model_id, x, y, init, fixed=fixed)

    log_space = spec.space == "log-intensity"
    w = np.ones_like(y) if log_space else 1.0 / np.abs(y)

    def residuals(u):
        m = spec.eval_fn(to_natural(spec, u), terms)
        return w * (np.log(m) - np.log(y)) if log_space else w * (m - y)

    def jacobian(u):
        theta = to_natural(spec, u)
        jn = spec.jac_fn(theta, terms)[1]
        if log_space:
            jn = jn / spec.eval_fn(theta, terms)[:, None]
        return w[:, None] * jn * dnatural_dinternal(spec, theta)[None, :]

    u0 = to_internal(spec, np.array([init[n] for n in spec.param_names]))
    ref = least_squares(residuals, u0, jac=jacobian, method="lm",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    for name, value in zip(spec.param_names, to_natural(spec, ref.x)):
        assert res.params[name] == pytest.approx(value, rel=1e-6), (model_id, name)
