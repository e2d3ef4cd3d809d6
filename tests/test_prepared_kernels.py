"""Prepared model terms against the direct formulas, bit for bit.

The catalog evaluates every model from terms prepared once from x and the
fixed quantities, and each gradient returns the values with the
Jacobian.  The reference kernels below are the direct formulas that take
the fixed quantities and the x columns on every call, kept here as the
arithmetic the prepared path must reproduce exactly: a term that is not
an exact leading subexpression of its formula changes last bits, and the
LM iteration counts with them.
"""

import functools

import numpy as np
import pytest

from echofit import models
from echofit.catalog import CATALOG, _draw_inputs
from echofit.constants import DEFAULT_CONSTANTS, EXP_CLAMP

FOUR_PI = 4.0 * np.pi
MU = DEFAULT_CONSTANTS.mu_b_over_k_b


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
