"""Closed-form echo-decay and linewidth models with analytic gradients.

Public functions take the parameter dataclasses from :mod:`echofit.params`
and times in the units their argument names state.  Internally every
rate*time product is formed in kHz*ms so the exponents are dimensionless
without hidden conversion factors.

The underscore-prefixed kernels operate on plain floats/arrays and are
bound directly by the fitting catalog.  Every kernel and its gradient take
the free parameters first, then the fixed quantities, then the x
column(s); see :mod:`echofit.catalog` for the full convention.
"""

import numpy as np

from .constants import DEFAULT_CONSTANTS, EXP_CLAMP
from .params import (
    FieldModelParams,
    MimsParams,
    SpectralDiffusionParams,
    TempModelParams,
    ThreeLevelParams,
)

FOUR_PI = 4.0 * np.pi

# Relative T_Z vs T_1 separation below which the removable singularity of
# the population factor is evaluated by its analytic limit instead.
DEGENERATE_LIFETIME_RTOL = 1e-9


def _cexp(a):
    """exp with the argument clamped to +-EXP_CLAMP."""
    return np.exp(np.clip(a, -EXP_CLAMP, EXP_CLAMP))


def _asarray(t, name, minimum=None):
    arr = np.asarray(t, dtype=float)
    if minimum is not None and np.any(arr < minimum):
        raise ValueError(f"{name} must be >= {minimum}")
    return arr


def _maybe_scalar(out, like):
    if np.isscalar(like) or getattr(like, "ndim", 1) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Two-pulse echo decay
# ---------------------------------------------------------------------------

def _mims(i0, tm_us, x, t12_us):
    u = 2.0 * np.asarray(t12_us, dtype=float) / tm_us
    return i0 * _cexp(-2.0 * u ** x)


def _mims_grad(i0, tm_us, x, t12_us):
    t = np.atleast_1d(np.asarray(t12_us, dtype=float))
    u = 2.0 * t / tm_us
    ux = u ** x
    intensity = i0 * _cexp(-2.0 * ux)
    # d/dx of u^x is u^x*ln(u); the t12 = 0 sample contributes zero in the limit.
    pos = u > 0.0
    ux_logu = np.zeros_like(u)
    ux_logu[pos] = ux[pos] * np.log(u[pos])
    g = np.empty((t.size, 3))
    g[:, 0] = intensity / i0
    g[:, 1] = intensity * (2.0 * x / tm_us) * ux
    g[:, 2] = -2.0 * intensity * ux_logu
    return g


def mims_intensity(p: MimsParams, t12_us):
    """Stretched-exponential echo intensity at pulse separation ``t12_us``.

    Returns ``i0 * exp(-2*(2*t12/tm)^x)``; equals ``i0`` at ``t12 = 0`` and
    is strictly decreasing in ``t12``.
    """
    t = _asarray(t12_us, "t12_us", minimum=0.0)
    return _maybe_scalar(_mims(p.i0, p.tm_us, p.x, t), t12_us)


def gamma_eff_from_tm(tm_us):
    """Effective homogeneous linewidth in kHz, 1/(pi*T_M)."""
    tm = np.asarray(tm_us, dtype=float)
    if np.any(tm <= 0):
        raise ValueError("tm_us must be > 0")
    return _maybe_scalar(1e3 / (np.pi * tm), tm_us)


def tm_from_gamma_eff(gamma_khz):
    """Inverse of :func:`gamma_eff_from_tm`; returns T_M in microseconds."""
    g = np.asarray(gamma_khz, dtype=float)
    if np.any(g <= 0):
        raise ValueError("gamma_khz must be > 0")
    return _maybe_scalar(1e3 / (np.pi * g), gamma_khz)


# ---------------------------------------------------------------------------
# Linewidth versus magnetic field
# ---------------------------------------------------------------------------

def _field(gamma0, alpha1, alpha2, g1, g2, temp_k, b_t, consts=DEFAULT_CONSTANTS):
    c = consts.mu_b_over_k_b / temp_k
    b = np.asarray(b_t, dtype=float)
    return gamma0 + alpha1 * _cexp(-g1 * c * b) + alpha2 * (1.0 - _cexp(-g2 * c * b))


def _field_grad(gamma0, alpha1, alpha2, g1, g2, temp_k, b_t, consts=DEFAULT_CONSTANTS):
    c = consts.mu_b_over_k_b / temp_k
    b = np.atleast_1d(np.asarray(b_t, dtype=float))
    e1 = _cexp(-g1 * c * b)
    e2 = _cexp(-g2 * c * b)
    g = np.empty((b.size, 5))
    g[:, 0] = 1.0
    g[:, 1] = e1
    g[:, 2] = 1.0 - e2
    g[:, 3] = -alpha1 * c * b * e1
    g[:, 4] = alpha2 * c * b * e2
    return g


def field_linewidth(p: FieldModelParams, b_t, temp_k, consts=DEFAULT_CONSTANTS):
    """Effective linewidth in kHz at field ``b_t`` (tesla) and temperature
    ``temp_k`` (kelvin).

    The two exponential terms describe a magnetically quenched broadening
    channel (amplitude alpha1, decaying with field) and a channel that
    turns on with field (amplitude alpha2).  Exponent arguments are
    clamped at +-700 so the asymptotes are exact in floating point.
    """
    if temp_k <= 0:
        raise ValueError("temp_k must be > 0")
    b = _asarray(b_t, "b_t", minimum=0.0)
    return _maybe_scalar(
        _field(p.gamma0_khz, p.alpha1_khz, p.alpha2_khz, p.g1, p.g2, temp_k, b, consts),
        b_t,
    )


def field_linewidth_minimum(p: FieldModelParams, temp_k, b_max_t,
                            n_grid=2048, consts=DEFAULT_CONSTANTS):
    """Global minimum of the field model on [0, b_max_t].

    Coarse grid scan (n_grid points, at least 2000) followed by bisection
    on the field derivative until |dGamma/dB| < 1e-9 kHz/T.  Returns
    ``(b_star_t, gamma_star_khz, boundary)`` where ``boundary`` is None for
    an interior minimum and "low"/"high" when the minimizer sits at 0 or
    b_max_t.
    """
    if temp_k <= 0:
        raise ValueError("temp_k must be > 0")
    if b_max_t <= 0:
        raise ValueError("b_max_t must be > 0")
    n_grid = max(int(n_grid), 2000)
    c = consts.mu_b_over_k_b / temp_k

    def dgamma(b):
        return (-p.alpha1_khz * p.g1 * c * _cexp(-p.g1 * c * b)
                + p.alpha2_khz * p.g2 * c * _cexp(-p.g2 * c * b))

    grid = np.linspace(0.0, b_max_t, n_grid)
    vals = _field(p.gamma0_khz, p.alpha1_khz, p.alpha2_khz, p.g1, p.g2,
                  temp_k, grid, consts)
    k = int(np.argmin(vals))
    if k == 0 and dgamma(0.0) >= 0.0:
        return 0.0, float(vals[0]), "low"
    if k == n_grid - 1 and dgamma(b_max_t) <= 0.0:
        return float(b_max_t), float(vals[-1]), "high"

    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, n_grid - 1)]
    dlo, dhi = dgamma(lo), dgamma(hi)
    if dlo > 0.0 or dhi < 0.0:
        # Derivative does not bracket a root here; the coarse minimum was a
        # grid artifact and the true minimizer is at a boundary.
        if vals[0] <= vals[-1]:
            return 0.0, float(vals[0]), "low"
        return float(b_max_t), float(vals[-1]), "high"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        dmid = dgamma(mid)
        if abs(dmid) < 1e-9:
            break
        if dmid < 0.0:
            lo = mid
        else:
            hi = mid
    b_star = 0.5 * (lo + hi)
    gamma_star = _field(p.gamma0_khz, p.alpha1_khz, p.alpha2_khz, p.g1, p.g2,
                        temp_k, b_star, consts)
    return float(b_star), float(gamma_star), None


# ---------------------------------------------------------------------------
# Linewidth versus temperature
# ---------------------------------------------------------------------------

def _temp(floor, amp, n, temp_k):
    return floor + amp * np.asarray(temp_k, dtype=float) ** n


def _temp_grad(floor, amp, n, temp_k):
    t = np.atleast_1d(np.asarray(temp_k, dtype=float))
    tn = t ** n
    g = np.empty((t.size, 3))
    g[:, 0] = 1.0
    g[:, 1] = tn
    g[:, 2] = amp * tn * np.log(t)
    return g


def temp_linewidth(p: TempModelParams, temp_k):
    """Constant floor plus amp*T^n, in kHz.

    The additive floor reproduces the low-temperature saturation and the
    power law dominates at higher temperature; no piecewise crossover is
    introduced.
    """
    t = np.asarray(temp_k, dtype=float)
    if np.any(t <= 0):
        raise ValueError("temp_k must be > 0")
    return _maybe_scalar(_temp(p.floor_khz, p.amp_khz, p.exponent_n, t), temp_k)


# ---------------------------------------------------------------------------
# Spectral-diffusion linewidth versus the two delays
# ---------------------------------------------------------------------------

def _sd(gamma0, gamma_sd, r_sd, gamma_tls, t0_us, t12_us, t23_us):
    t12_ms = np.asarray(t12_us, dtype=float) * 1e-3
    t23_ms = np.asarray(t23_us, dtype=float) * 1e-3
    t0_ms = t0_us * 1e-3
    return (gamma0
            + 0.5 * gamma_sd * (r_sd * t12_ms + 1.0 - _cexp(-r_sd * t23_ms))
            + gamma_tls * np.log10(t23_ms / t0_ms))


def _sd_grad(gamma0, gamma_sd, r_sd, gamma_tls, t0_us, t12_us, t23_us):
    t12_ms = np.atleast_1d(np.asarray(t12_us, dtype=float)) * 1e-3
    t23_ms = np.atleast_1d(np.asarray(t23_us, dtype=float)) * 1e-3
    t0_ms = t0_us * 1e-3
    e = _cexp(-r_sd * t23_ms)
    n = max(t12_ms.size, t23_ms.size)
    g = np.empty((n, 4))
    g[:, 0] = 1.0
    g[:, 1] = 0.5 * (r_sd * t12_ms + 1.0 - e)
    g[:, 2] = 0.5 * gamma_sd * (t12_ms + t23_ms * e)
    g[:, 3] = np.log10(t23_ms / t0_ms)
    return g


def sd_linewidth(p: SpectralDiffusionParams, t12_us, t23_us):
    """Effective linewidth in kHz for a stimulated-echo sequence with pulse
    separation ``t12_us`` and waiting time ``t23_us``.

    Sum of the base linewidth, a flip-flop diffusion term (linear in t12,
    saturating in t23 with rate r_sd) and a slow contribution growing with
    log10(t23/t0).  The log term is defined only for t23 >= t0.
    """
    t23 = _asarray(t23_us, "t23_us")
    if np.any(t23 < p.t0_us):
        raise ValueError("t23_us must be >= t0_us")
    t12 = _asarray(t12_us, "t12_us", minimum=0.0)
    out = _sd(p.gamma0_khz, p.gamma_sd_khz, p.r_sd_khz, p.gamma_tls_khz,
              p.t0_us, t12, t23)
    ref = t23_us if np.ndim(t23_us) >= np.ndim(t12_us) else t12_us
    return _maybe_scalar(out, ref)


def sd_linewidth_t23(p: SpectralDiffusionParams, t23_us):
    """Waiting-time-only form of :func:`sd_linewidth` (t12 = 0)."""
    return sd_linewidth(p, 0.0, t23_us)


# ---------------------------------------------------------------------------
# Three-level population factor and stimulated echo
# ---------------------------------------------------------------------------

def _population(t1_ms, tz_s, beta, t23_ms):
    t = np.asarray(t23_ms, dtype=float)
    tz_ms = tz_s * 1e3
    ea = _cexp(-t / t1_ms)
    if abs(tz_ms - t1_ms) < DEGENERATE_LIFETIME_RTOL * t1_ms:
        return ea + 0.5 * beta * (t / t1_ms) * ea
    w = tz_ms / (tz_ms - t1_ms)
    eb = _cexp(-t / tz_ms)
    return ea + 0.5 * beta * w * (eb - ea)


def three_level_population_factor(p: ThreeLevelParams, t23_ms):
    """Ground-state population recovery factor at waiting time ``t23_ms``.

    e^(-t/T1) + (beta/2) * Tz/(Tz - T1) * (e^(-t/Tz) - e^(-t/T1)); the
    removable singularity at Tz = T1 is evaluated by its analytic limit
    when the lifetimes agree to within 1e-9 relative.
    """
    t = _asarray(t23_ms, "t23_ms", minimum=0.0)
    return _maybe_scalar(_population(p.t1_ms, p.tz_s, p.beta, t), t23_ms)


def _echo3(i0, beta, gamma0, gamma_sd, r_sd, gamma_tls,
           t1_ms, tz_s, t0_us, t12_us, t23_us):
    pop = _population(t1_ms, tz_s, beta, np.asarray(t23_us, dtype=float) * 1e-3)
    gamma = _sd(gamma0, gamma_sd, r_sd, gamma_tls, t0_us, t12_us, t23_us)
    t12_ms = np.asarray(t12_us, dtype=float) * 1e-3
    return i0 * pop ** 2 * _cexp(-FOUR_PI * t12_ms * gamma)


def _echo3_grad(i0, beta, gamma0, gamma_sd, r_sd, gamma_tls,
                t1_ms, tz_s, t0_us, t12_us, t23_us, free_t1=False):
    t12_ms = np.atleast_1d(np.asarray(t12_us, dtype=float)) * 1e-3
    t23_ms = np.atleast_1d(np.asarray(t23_us, dtype=float)) * 1e-3
    tz_ms = tz_s * 1e3

    ea = _cexp(-t23_ms / t1_ms)
    degenerate = abs(tz_ms - t1_ms) < DEGENERATE_LIFETIME_RTOL * t1_ms
    if degenerate:
        pop = ea + 0.5 * beta * (t23_ms / t1_ms) * ea
        dpop_dbeta = 0.5 * (t23_ms / t1_ms) * ea
    else:
        w = tz_ms / (tz_ms - t1_ms)
        eb = _cexp(-t23_ms / tz_ms)
        pop = ea + 0.5 * beta * w * (eb - ea)
        dpop_dbeta = 0.5 * w * (eb - ea)

    gamma = _sd(gamma0, gamma_sd, r_sd, gamma_tls, t0_us,
                t12_ms * 1e3, t23_ms * 1e3)
    gsd = _sd_grad(gamma0, gamma_sd, r_sd, gamma_tls, t0_us,
                   t12_ms * 1e3, t23_ms * 1e3)
    env = _cexp(-FOUR_PI * t12_ms * gamma)
    intensity = i0 * pop ** 2 * env

    n = max(t12_ms.size, t23_ms.size)
    cols = 7 if free_t1 else 6
    g = np.empty((n, cols))
    g[:, 0] = pop ** 2 * env
    g[:, 1] = i0 * 2.0 * pop * dpop_dbeta * env
    for j in range(4):
        g[:, 2 + j] = -FOUR_PI * t12_ms * intensity * gsd[:, j]
    if free_t1:
        dea = ea * t23_ms / t1_ms ** 2
        if degenerate:
            dpop_dt1 = dea + 0.5 * beta * (dea * t23_ms / t1_ms
                                           - ea * t23_ms / t1_ms ** 2)
        else:
            dw = tz_ms / (tz_ms - t1_ms) ** 2
            dpop_dt1 = dea + 0.5 * beta * (dw * (eb - ea) - w * dea)
        g[:, 6] = i0 * 2.0 * pop * dpop_dt1 * env
    return g


def stimulated_echo_intensity(tl: ThreeLevelParams, sd: SpectralDiffusionParams,
                              t12_us, t23_us):
    """Stimulated-echo intensity: population factor squared times the
    dephasing envelope exp(-4*pi*t12*Gamma_eff(t12, t23)).
    """
    t23 = _asarray(t23_us, "t23_us")
    if np.any(t23 < sd.t0_us):
        raise ValueError("t23_us must be >= t0_us")
    t12 = _asarray(t12_us, "t12_us", minimum=0.0)
    out = _echo3(tl.i0, tl.beta, sd.gamma0_khz, sd.gamma_sd_khz, sd.r_sd_khz,
                 sd.gamma_tls_khz, tl.t1_ms, tl.tz_s, sd.t0_us, t12, t23)
    ref = t23_us if np.ndim(t23_us) >= np.ndim(t12_us) else t12_us
    return _maybe_scalar(out, ref)


# ---------------------------------------------------------------------------
# Field/temperature dependence of the diffusion amplitude
# ---------------------------------------------------------------------------

def _sech2(gamma_max, g, temp_k, b_t, consts=DEFAULT_CONSTANTS):
    k = g * consts.mu_b_over_k_b * np.asarray(b_t, dtype=float) / (2.0 * temp_k)
    return gamma_max / np.cosh(np.clip(k, -EXP_CLAMP, EXP_CLAMP)) ** 2


def _sech2_grad(gamma_max, g, temp_k, b_t, consts=DEFAULT_CONSTANTS):
    b = np.atleast_1d(np.asarray(b_t, dtype=float))
    cb = consts.mu_b_over_k_b * b / (2.0 * temp_k)
    k = np.clip(g * cb, -EXP_CLAMP, EXP_CLAMP)
    sech2 = 1.0 / np.cosh(k) ** 2
    grad = np.empty((b.size, 2))
    grad[:, 0] = sech2
    grad[:, 1] = -2.0 * gamma_max * sech2 * np.tanh(k) * cb
    return grad


def sech2_sd_amplitude(gamma_max_khz, g, b_t, temp_k, consts=DEFAULT_CONSTANTS):
    """Flip-flop diffusion amplitude gamma_max*sech^2(g*mu_B*B/(2*k_B*T))."""
    if temp_k <= 0:
        raise ValueError("temp_k must be > 0")
    b = _asarray(b_t, "b_t")
    return _maybe_scalar(_sech2(gamma_max_khz, g, temp_k, b, consts), b_t)
