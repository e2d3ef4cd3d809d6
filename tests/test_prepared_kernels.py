"""Prepared model terms and the public laws against the direct formulas,
bit for bit.

Each model is a terms function, one kernel that returns ``(values,
Jacobian)``, a guess and a ``_draw_inputs`` draw.  The catalog evaluates
every model from terms prepared once from x and the fixed quantities,
and the public law functions in :mod:`echofit.models` take their values
from the same kernels.  The reference kernels below are the direct
formulas that take the fixed quantities and the x columns on every call,
kept here as the arithmetic both paths must reproduce exactly: a term
that is not an exact leading subexpression of its formula changes last
bits, and the LM iteration counts with them.
"""

import functools

import numpy as np
import pytest

from echofit import models
from echofit.catalog import CATALOG, _draw_inputs
from echofit.constants import EXP_CLAMP, MU_B_OVER_K_B
from echofit.params import (
    FieldModelParams,
    MimsParams,
    SpectralDiffusionParams,
    TempModelParams,
    ThreeLevelParams,
)

FOUR_PI = 4.0 * np.pi
MU = MU_B_OVER_K_B


def _cexp(a):
    return np.exp(np.clip(a, -EXP_CLAMP, EXP_CLAMP))


def _mims(i0, tm_us, x, t12_us):
    u = 2.0 * np.asarray(t12_us, dtype=float) / tm_us
    return i0 * _cexp(-2.0 * u ** x)


def _mims_grad(i0, tm_us, x, t12_us):
    u = 2.0 * np.asarray(t12_us, dtype=float) / tm_us
    ux = u ** x
    intensity = i0 * _cexp(-2.0 * ux)
    pos = u > 0.0
    ux_logu = np.zeros_like(u)
    ux_logu[pos] = ux[pos] * np.log(u[pos])
    return np.stack([intensity / i0, intensity * (2.0 * x / tm_us) * ux,
                     -2.0 * intensity * ux_logu], axis=-1)


def _field(gamma0, alpha1, alpha2, g1, g2, temp_k, b):
    c = MU / temp_k
    return gamma0 + alpha1 * _cexp(-g1 * c * b) + alpha2 * (1.0 - _cexp(-g2 * c * b))


def _field_grad(gamma0, alpha1, alpha2, g1, g2, temp_k, b):
    c = MU / temp_k
    e1 = _cexp(-g1 * c * b)
    e2 = _cexp(-g2 * c * b)
    return np.stack([np.ones_like(e1), e1, 1.0 - e2, -alpha1 * c * b * e1,
                     alpha2 * c * b * e2], axis=-1)


def _temp(floor, amp, n, t):
    return floor + amp * t ** n


def _temp_grad(floor, amp, n, t):
    tn = t ** n
    return np.stack([np.ones_like(tn), tn, amp * tn * np.log(t)], axis=-1)


def _sech2(gamma_max, g, temp_k, b):
    k = g * MU * b / (2.0 * temp_k)
    return gamma_max / np.cosh(np.clip(k, -EXP_CLAMP, EXP_CLAMP)) ** 2


def _sech2_grad(gamma_max, g, temp_k, b):
    cb = MU * b / (2.0 * temp_k)
    k = np.clip(g * cb, -EXP_CLAMP, EXP_CLAMP)
    sech2 = 1.0 / np.cosh(k) ** 2
    return np.stack([sech2, -2.0 * gamma_max * sech2 * np.tanh(k) * cb], axis=-1)


def _sd(gamma0, gamma_sd, r_sd, gamma_tls, t0_us, t12_us, t23_us):
    t12_ms = t12_us * 1e-3
    t23_ms = t23_us * 1e-3
    return (gamma0 + 0.5 * gamma_sd * (r_sd * t12_ms + 1.0 - _cexp(-r_sd * t23_ms))
            + gamma_tls * np.log10(t23_ms / (t0_us * 1e-3)))


def _sd_grad(gamma0, gamma_sd, r_sd, gamma_tls, t0_us, t12_us, t23_us):
    t12_ms = t12_us * 1e-3
    t23_ms = t23_us * 1e-3
    e = _cexp(-r_sd * t23_ms)
    return np.stack([np.ones_like(e), 0.5 * (r_sd * t12_ms + 1.0 - e),
                     0.5 * gamma_sd * (t12_ms + t23_ms * e),
                     np.broadcast_to(np.log10(t23_ms / (t0_us * 1e-3)), e.shape)], axis=-1)


def _population(t1_ms, tz_ms, beta, t23_ms):
    """Population factor and its beta derivative, both branches formed and
    the T_Z = T_1 limit taken row by row."""
    ea = _cexp(-t23_ms / t1_ms)
    eb = _cexp(-t23_ms / tz_ms)
    degenerate = np.abs(tz_ms - t1_ms) < 1e-9 * t1_ms
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.divide(tz_ms, tz_ms - t1_ms)
        pop = ea + 0.5 * beta * w * (eb - ea)
        dpop_dbeta = 0.5 * w * (eb - ea)
    pop = np.where(degenerate, ea + 0.5 * beta * (t23_ms / t1_ms) * ea, pop)
    dpop_dbeta = np.where(degenerate, 0.5 * (t23_ms / t1_ms) * ea, dpop_dbeta)
    return ea, eb, w, degenerate, pop, dpop_dbeta


def _echo3(i0, beta, gamma0, gamma_sd, r_sd, gamma_tls, t1_ms, tz_s, t0_us, t12_us, t23_us):
    pop = _population(t1_ms, tz_s * 1e3, beta, t23_us * 1e-3)[4]
    gamma = _sd(gamma0, gamma_sd, r_sd, gamma_tls, t0_us, t12_us, t23_us)
    return i0 * pop ** 2 * _cexp(-FOUR_PI * (t12_us * 1e-3) * gamma)


def _echo3_grad(i0, beta, gamma0, gamma_sd, r_sd, gamma_tls, t1_ms, tz_s, t0_us,
                t12_us, t23_us, free_t1=False):
    t12_ms = t12_us * 1e-3
    t23_ms = t23_us * 1e-3
    tz_ms = tz_s * 1e3
    ea, eb, w, degenerate, pop, dpop_dbeta = _population(t1_ms, tz_ms, beta, t23_ms)
    # Gamma_eff on the delays round-tripped through microseconds.
    gamma = _sd(gamma0, gamma_sd, r_sd, gamma_tls, t0_us, t12_ms * 1e3, t23_ms * 1e3)
    gsd = _sd_grad(gamma0, gamma_sd, r_sd, gamma_tls, t0_us, t12_ms * 1e3, t23_ms * 1e3)
    env = _cexp(-FOUR_PI * t12_ms * gamma)
    intensity = i0 * pop ** 2 * env
    cols = [pop ** 2 * env, i0 * 2.0 * pop * dpop_dbeta * env]
    cols += [-FOUR_PI * t12_ms * intensity * gsd[..., j] for j in range(4)]
    if free_t1:
        t1_sq = t1_ms * t1_ms
        dea = ea * t23_ms / t1_sq
        with np.errstate(divide="ignore", invalid="ignore"):
            dw = tz_ms / ((tz_ms - t1_ms) * (tz_ms - t1_ms))
            dpop_dt1 = dea + 0.5 * beta * (dw * (eb - ea) - w * dea)
        dpop_dt1 = np.where(
            degenerate, dea + 0.5 * beta * (dea * t23_ms / t1_ms - ea * t23_ms / t1_sq),
            dpop_dt1)
        cols.append(i0 * 2.0 * pop * dpop_dt1 * env)
    return np.stack(cols, axis=-1)


# model id -> (value, gradient, fixed quantities in the order the direct
# formulas take them).  The direct echo3 formulas take T1 as their first
# fixed argument; echo3-free-t1 passes its last parameter there.
REFERENCE = {
    "mims": (_mims, _mims_grad, ()),
    "field": (_field, _field_grad, ("temp_k",)),
    "temp": (_temp, _temp_grad, ()),
    "sech2": (_sech2, _sech2_grad, ("temp_k",)),
    "sd": (_sd, _sd_grad, ("t0_us",)),
    "echo3": (_echo3, _echo3_grad, ("t1_ms", "tz_s", "t0_us")),
    "echo3-free-t1": (_echo3, functools.partial(_echo3_grad, free_t1=True),
                      ("tz_s", "t0_us")),
}


def _direct(kernel, fixed_names, theta, x, fixed):
    """The direct formula on a (p,) theta, or on a (B, p) theta with
    parameters as (B, 1) columns; x columns are passed whole."""
    params = list(theta.T[:, :, None] if theta.ndim == 2 else theta)
    xs = [x] if x.ndim == theta.ndim else list(np.moveaxis(x, -1, 0))
    return kernel(*params, *[fixed[k] for k in fixed_names], *xs)


def test_reference_covers_the_catalog():
    assert sorted(REFERENCE) == sorted(CATALOG)


def _assert_prepared_equal_direct(spec, value, grad, fixed_names, theta, x, fixed):
    """eval_fn and jac_fn's Jacobian against the direct formulas, and
    jac_fn's values against eval_fn's, in shape and bytes."""
    terms = spec.prepare(x, fixed)
    values = spec.eval_fn(theta, terms)
    jac_values, jac = spec.jac_fn(theta, terms)
    assert values.tobytes() == _direct(value, fixed_names, theta, x, fixed).tobytes()
    assert (jac_values.shape, jac_values.tobytes()) == (values.shape, values.tobytes())
    assert jac.tobytes() == _direct(grad, fixed_names, theta, x, fixed).tobytes()


@pytest.mark.parametrize("model_id", sorted(CATALOG))
def test_prepared_kernels_equal_the_direct_formulas(model_id):
    # jac_fn returns (values, Jacobian); the engine fits on those values,
    # so they must be eval_fn's to the last bit
    spec = CATALOG[model_id]
    value, grad, fixed_names = REFERENCE[model_id]
    rng = np.random.default_rng(41)
    draws = [_draw_inputs(model_id, rng) for _ in range(12)]
    if model_id.startswith("echo3"):
        # one draw on the removable T_Z = T_1 singularity
        theta, x, fixed = draws[0]
        t1_ms = fixed["tz_s"] * 1e3
        if model_id == "echo3":
            fixed = dict(fixed, t1_ms=t1_ms)
        else:
            theta = np.append(theta[:-1], t1_ms)
        draws[0] = (theta, x, fixed)
    for theta, x, fixed in draws:
        _assert_prepared_equal_direct(spec, value, grad, fixed_names, theta, x, fixed)
    theta = np.stack([d[0] for d in draws])
    x = np.stack([d[1] for d in draws])
    fixed = {k: np.array([[d[2][k]] for d in draws]) for k in draws[0][2]}
    _assert_prepared_equal_direct(spec, value, grad, fixed_names, theta, x, fixed)


def test_clamped_exp_equals_exp_of_clip():
    # the kernels clamp exp's argument with np.maximum and np.minimum
    # against 0-d float64 bounds; that must be np.clip's result, NaN
    # included, for scalars, 0-d arrays and stacks alike
    edges = [np.nan, np.inf, -np.inf, 0.0, -1.5]
    for c in (EXP_CLAMP, -EXP_CLAMP):
        edges += [c, float(np.nextafter(c, np.inf)), float(np.nextafter(c, -np.inf))]
    for a in edges:
        for arg in (a, np.array(a)):
            out = models._cexp(arg)
            assert type(out) is np.float64
            assert out.tobytes() == _cexp(arg).tobytes()
    stack = np.array(edges * 2).reshape(2, -1)
    out = models._cexp(stack)
    assert type(out) is np.ndarray
    assert (out.shape, out.tobytes()) == (stack.shape, _cexp(stack).tobytes())


def _x(rng, lo, hi, shape):
    """A Python float for shape None, else an array of that shape."""
    v = rng.uniform(lo, hi, shape)
    return float(v) if shape is None else v


def _law_pairs(rng, shape):
    """(public law function, its result, the direct formula's result) for
    every public law function on one random draw, x values of ``shape``."""
    p = _draw_inputs("mims", rng)[0].tolist()
    t12 = _x(rng, 0.0, 60.0, shape)
    yield models.mims_intensity, models.mims_intensity(MimsParams(*p), t12), _mims(*p, t12)

    theta, _, fixed = _draw_inputs("field", rng)
    p, temp_k = theta.tolist(), fixed["temp_k"]
    b = _x(rng, 0.0, 3.0, shape)
    law = FieldModelParams(*p)
    yield models.field_linewidth, models.field_linewidth(law, b, temp_k), _field(*p, temp_k, b)
    b_star, gamma_star, _ = models.field_linewidth_minimum(law, temp_k, rng.uniform(0.01, 5.0))
    yield models.field_linewidth_minimum, gamma_star, _field(*p, temp_k, b_star)

    p = _draw_inputs("temp", rng)[0].tolist()
    temp = _x(rng, 0.007, 0.6, shape)
    yield models.temp_linewidth, models.temp_linewidth(TempModelParams(*p), temp), _temp(*p, temp)

    theta, _, fixed = _draw_inputs("sech2", rng)
    p, temp_k = theta.tolist(), fixed["temp_k"]
    b = _x(rng, -2.0, 2.0, shape)
    yield (models.sech2_sd_amplitude, models.sech2_sd_amplitude(*p, b, temp_k),
           _sech2(*p, temp_k, b))

    theta, _, fixed = _draw_inputs("echo3", rng)
    p, t1_ms, tz_s, t0_us = theta.tolist(), fixed["t1_ms"], fixed["tz_s"], fixed["t0_us"]
    if rng.uniform() < 0.25:
        t1_ms = tz_s * 1e3   # on the removable T_Z = T_1 singularity
    tl = ThreeLevelParams(i0=p[0], t1_ms=t1_ms, tz_s=tz_s, beta=p[1])
    sd = SpectralDiffusionParams(*p[2:], t0_us=t0_us)
    t12, t23 = _x(rng, 0.0, 2.0, shape), _x(rng, t0_us, 7500.0, shape)
    yield (models.stimulated_echo_intensity, models.stimulated_echo_intensity(tl, sd, t12, t23),
           _echo3(*p, t1_ms, tz_s, t0_us, t12, t23))
    yield models.sd_linewidth, models.sd_linewidth(sd, t12, t23), _sd(*p[2:], t0_us, t12, t23)
    t23_ms = _x(rng, 0.0, 7.5, shape)
    yield (models.three_level_population_factor,
           models.three_level_population_factor(tl, t23_ms),
           _population(t1_ms, tz_s * 1e3, p[1], t23_ms)[4])


@pytest.mark.parametrize("shape", [None, (), (17,), (3, 5)])
def test_public_laws_equal_the_direct_formulas(shape):
    # a scalar or 0-d input gives a Python float, an array input an array
    # of its shape; both carry the direct formula's bits, so a scalar call
    # keeps its scalar arithmetic (u ** x on a scalar and on an array can
    # differ in the last bit)
    rng = np.random.default_rng(43)
    seen = set()
    for _ in range(60):
        for law, public, direct in _law_pairs(rng, shape):
            seen.add(law.__name__)
            direct = np.asarray(direct, dtype=float)
            if law is models.field_linewidth_minimum or shape in (None, ()):
                assert type(public) is float, law.__name__
            else:
                assert type(public) is np.ndarray, law.__name__
            assert (np.shape(public), np.asarray(public).tobytes()) == \
                (direct.shape, direct.tobytes()), law.__name__
    assert len(seen) == 8
