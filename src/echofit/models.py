"""Closed-form echo-decay and linewidth models with analytic gradients.

Public functions take the parameter dataclasses from :mod:`echofit.params`
and times in the units their argument names state.  Internally every
rate*time product is formed in kHz*ms so the exponents are dimensionless
without hidden conversion factors.

The underscore-prefixed functions operate on plain floats/arrays and are
bound directly by the fitting catalog.  Each model has a ``_<model>_terms``
function that takes the fixed quantities, then the x column(s), and
returns the kernel's data-only subexpressions, and one kernel,
``_<model>_grad``, that takes the free parameters followed by those
terms and returns ``(values, gradient)``.  A term is always a leading
subexpression of the formula it stands in, so a fit computes it once and
every evaluation keeps its last bits (see :mod:`echofit.catalog`).  The
kernels also evaluate B problems at once: parameters as (B, 1) columns
and terms of (B, n) rows give (B, n) values and (B, n, p) gradients, each
row bit-equal to the call with that row's scalars.  On scalar terms a
kernel keeps scalar arithmetic, so the public law functions, which take
their values from it, give a scalar call the direct formula's bits.

Most kernels form the values from the subexpressions the gradient
already holds.  Two keep the direct formula where the gradient's
arithmetic differs from it: sech2's argument is ``g * mu * b / two_t``,
not the gradient's ``g * cb``, and echo3 takes its values on the delays
as given, not on the round-tripped ones its Jacobian uses.

The optimum of the field law, :func:`field_linewidth_minimum`, is the
closed-form zero of its field derivative, or an end point of the field
range where that zero is not an interior minimum.
"""

import numpy as np

from .constants import EXP_CLAMP, MU_B_OVER_K_B
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


# Scalar operands of the fitted kernels, as 0-d float64 arrays: a Python
# float operand costs NumPy a scalar promotion on every call, which about
# doubles the cost of a ufunc on a small array, and gives the same bits.
_ZERO = np.array(0.0)
_HALF = np.array(0.5)
_ONE = np.array(1.0)
_TWO = np.array(2.0)
_NEG_TWO = np.array(-2.0)
_EXP_LO = np.array(-EXP_CLAMP)
_EXP_HI = np.array(EXP_CLAMP)


def _cexp(a):
    """exp with the argument clamped to +-EXP_CLAMP (the two-ufunc form
    of np.clip, equal to it bit for bit and NaN for NaN, but with less
    call overhead on small arrays)."""
    return np.exp(np.minimum(np.maximum(a, _EXP_LO), _EXP_HI))


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

def _mims_terms(t12_us):
    return (2.0 * np.asarray(t12_us, dtype=float),)


def _mims_grad(i0, tm_us, x, two_t12):
    u = two_t12 / tm_us
    ux = u ** x
    intensity = i0 * _cexp(_NEG_TWO * ux)
    # d/dx of u^x is u^x*ln(u); the t12 = 0 sample contributes zero in the
    # limit, which u^x * ln(1) gives.
    ux_logu = ux * np.log(np.where(u > _ZERO, u, _ONE))
    g = np.empty(np.shape(u) + (3,))
    g[..., 0] = intensity / i0
    g[..., 1] = intensity * (_TWO * x / tm_us) * ux
    g[..., 2] = _NEG_TWO * intensity * ux_logu
    return intensity, g


def mims_intensity(p: MimsParams, t12_us):
    """Stretched-exponential echo intensity at pulse separation ``t12_us``.

    Returns ``i0 * exp(-2*(2*t12/tm)^x)``; equals ``i0`` at ``t12 = 0`` and
    is strictly decreasing in ``t12``.
    """
    t = _asarray(t12_us, "t12_us", minimum=0.0)
    return _maybe_scalar(_mims_grad(p.i0, p.tm_us, p.x, *_mims_terms(t))[0], t12_us)


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

def _field_terms(temp_k, b_t):
    return MU_B_OVER_K_B / temp_k, np.asarray(b_t, dtype=float)


def _field_grad(gamma0, alpha1, alpha2, g1, g2, c, b):
    e1 = _cexp(-g1 * c * b)
    e2 = _cexp(-g2 * c * b)
    rise = _ONE - e2
    g = np.empty(np.shape(e1) + (5,))
    g[..., 0] = _ONE
    g[..., 1] = e1
    g[..., 2] = rise
    g[..., 3] = -alpha1 * c * b * e1
    g[..., 4] = alpha2 * c * b * e2
    return gamma0 + alpha1 * e1 + alpha2 * rise, g


def field_linewidth(p: FieldModelParams, b_t, temp_k):
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
        _field_grad(p.gamma0_khz, p.alpha1_khz, p.alpha2_khz, p.g1, p.g2,
                    *_field_terms(temp_k, b))[0],
        b_t,
    )


def field_linewidth_minimum(p: FieldModelParams, temp_k, b_max_t):
    """Global minimum of the field model on [0, b_max_t], in closed form.

    With c = mu_B/(k_B T), dGamma/dB = c*(alpha2*g2*e^(-g2*c*B) -
    alpha1*g1*e^(-g1*c*B)) vanishes only at
    B* = ln(alpha1*g1/(alpha2*g2)) / ((g1 - g2)*c), a minimum when
    g1 > g2 that lies above 0 when alpha1*g1 > alpha2*g2 > 0.  Otherwise,
    or when B* >= b_max_t, the minimizer is the lower end point ("low"
    on a tie).  Returns ``(b_star_t, gamma_star_khz, boundary)`` where
    ``boundary`` is None for an interior minimum and "low"/"high" when
    the minimizer sits at 0 or b_max_t.
    """
    if temp_k <= 0:
        raise ValueError("temp_k must be > 0")
    if b_max_t <= 0:
        raise ValueError("b_max_t must be > 0")
    c = MU_B_OVER_K_B / temp_k

    def gamma(b):
        return float(_field_grad(p.gamma0_khz, p.alpha1_khz, p.alpha2_khz,
                                 p.g1, p.g2, c, b)[0])

    falling, rising = p.alpha1_khz * p.g1, p.alpha2_khz * p.g2
    if p.g1 > p.g2 and falling > rising > 0:
        b_star = np.log(falling / rising) / ((p.g1 - p.g2) * c)
        if b_star < b_max_t:
            return float(b_star), gamma(b_star), None
    g_low, g_high = gamma(0.0), gamma(b_max_t)
    if g_low <= g_high:
        return 0.0, g_low, "low"
    return float(b_max_t), g_high, "high"


# ---------------------------------------------------------------------------
# Linewidth versus temperature
# ---------------------------------------------------------------------------

def _temp_terms(temp_k):
    t = np.asarray(temp_k, dtype=float)
    return t, np.log(t)


def _temp_grad(floor, amp, n, t, log_t):
    tn = t ** n
    g = np.empty(np.shape(tn) + (3,))
    g[..., 0] = _ONE
    g[..., 1] = tn
    g[..., 2] = amp * tn * log_t
    return floor + amp * tn, g


def temp_linewidth(p: TempModelParams, temp_k):
    """Constant floor plus amp*T^n, in kHz.

    The additive floor reproduces the low-temperature saturation and the
    power law dominates at higher temperature; no piecewise crossover is
    introduced.
    """
    t = np.asarray(temp_k, dtype=float)
    if np.any(t <= 0):
        raise ValueError("temp_k must be > 0")
    return _maybe_scalar(
        _temp_grad(p.floor_khz, p.amp_khz, p.exponent_n, *_temp_terms(t))[0], temp_k)


# ---------------------------------------------------------------------------
# Spectral-diffusion linewidth versus the two delays
# ---------------------------------------------------------------------------

def _sd_terms(t0_us, t12_us, t23_us):
    t12_ms = np.asarray(t12_us, dtype=float) * 1e-3
    t23_ms = np.asarray(t23_us, dtype=float) * 1e-3
    return t12_ms, t23_ms, np.log10(t23_ms / (t0_us * 1e-3))


def _sd(gamma0, gamma_sd, r_sd, gamma_tls, t12_ms, t23_ms, log_t23):
    return (gamma0
            + _HALF * gamma_sd * (r_sd * t12_ms + _ONE - _cexp(-r_sd * t23_ms))
            + gamma_tls * log_t23)


def _sd_parts(gamma0, gamma_sd, r_sd, gamma_tls, t12_ms, t23_ms, log_t23):
    """Gamma_eff and its derivatives by gamma_sd and r_sd, from one
    exponential; the derivatives by gamma0 and gamma_tls are 1 and
    log_t23."""
    e = _cexp(-r_sd * t23_ms)
    q = r_sd * t12_ms + _ONE - e
    return (gamma0 + _HALF * gamma_sd * q + gamma_tls * log_t23,
            _HALF * q, _HALF * gamma_sd * (t12_ms + t23_ms * e))


def _sd_grad(gamma0, gamma_sd, r_sd, gamma_tls, t12_ms, t23_ms, log_t23):
    gamma, d_gamma_sd, d_r_sd = _sd_parts(gamma0, gamma_sd, r_sd, gamma_tls,
                                          t12_ms, t23_ms, log_t23)
    g = np.empty(np.shape(d_gamma_sd) + (4,))
    g[..., 0] = _ONE
    g[..., 1] = d_gamma_sd
    g[..., 2] = d_r_sd
    g[..., 3] = log_t23
    return gamma, g


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
              *_sd_terms(p.t0_us, t12, t23))
    ref = t23_us if np.ndim(t23_us) >= np.ndim(t12_us) else t12_us
    return _maybe_scalar(out, ref)


# ---------------------------------------------------------------------------
# Three-level population factor and stimulated echo
# ---------------------------------------------------------------------------

def _degenerate(t1_ms, tz_ms):
    """Where T_Z and T_1 agree closely enough to take the analytic limit;
    one answer per row when the lifetimes are (B, 1) columns."""
    return np.abs(tz_ms - t1_ms) < DEGENERATE_LIFETIME_RTOL * t1_ms


def _population_terms(t1_ms, tz_ms, t23_ms, eb):
    """``(ea, a, b)`` such that the population factor is
    ``ea + 0.5*beta*a*b``; ``eb`` is exp(-t23/T_Z).

    Off the T_Z = T_1 singularity a = T_Z/(T_Z - T_1) and b = eb - ea; on
    it the analytic limit has a = t23/T_1 and b = ea.  The limit is chosen
    row by row when the lifetimes are (B, 1) columns.
    """
    ea = _cexp(-t23_ms / t1_ms)
    degenerate = _degenerate(t1_ms, tz_ms)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.divide(tz_ms, tz_ms - t1_ms)
    return (ea, np.where(degenerate, t23_ms / t1_ms, w),
            np.where(degenerate, ea, eb - ea))


def _population(beta, ea, a, b):
    return ea + _HALF * beta * a * b


def three_level_population_factor(p: ThreeLevelParams, t23_ms):
    """Ground-state population recovery factor at waiting time ``t23_ms``.

    e^(-t/T1) + (beta/2) * Tz/(Tz - T1) * (e^(-t/Tz) - e^(-t/T1)); the
    removable singularity at Tz = T1 is evaluated by its analytic limit
    when the lifetimes agree to within 1e-9 relative.
    """
    t = _asarray(t23_ms, "t23_ms", minimum=0.0)
    tz_ms = p.tz_s * 1e3
    terms = _population_terms(p.t1_ms, tz_ms, t, _cexp(-t / tz_ms))
    return _maybe_scalar(_population(p.beta, *terms), t23_ms)


def _echo3_delay_terms(t0_us, t12_us, t23_us):
    """The stimulated echo's terms of the two delays alone:
    ``(-4*pi*t12_ms, t12_ms, t23_ms, log10(t23/t0))`` for the value, then
    the Gamma_eff terms of the delays round-tripped through microseconds
    (``t12_ms * 1e3``, ``t23_ms * 1e3``), on which the gradient takes
    Gamma_eff."""
    t12_ms, t23_ms, log_t23 = _sd_terms(t0_us, t12_us, t23_us)
    return (-FOUR_PI * t12_ms, t12_ms, t23_ms, log_t23,
            *_sd_terms(t0_us, t12_ms * 1e3, t23_ms * 1e3))


def _echo3_columns(i0, pop, dpop_dbeta, gamma0, gamma_sd, r_sd, gamma_tls,
                   m4pi_t12, t12_ms, t23_ms, log_t23, t12_rt, t23_rt, log_rt, cols):
    """Values, the Jacobian with its first six columns filled, and the
    dephasing envelope the last column needs.  The Jacobian takes
    Gamma_eff on the round-tripped delays and the values on the delays as
    given."""
    gamma, d_gamma_sd, d_r_sd = _sd_parts(gamma0, gamma_sd, r_sd, gamma_tls,
                                          t12_rt, t23_rt, log_rt)
    env = _cexp(m4pi_t12 * gamma)
    pop2 = pop ** 2
    i0_pop2 = i0 * pop2
    intensity = i0_pop2 * env
    g = np.empty(intensity.shape + (cols,))
    g[..., 0] = pop2 * env
    g[..., 1] = i0 * _TWO * pop * dpop_dbeta * env
    # Chain rule through Gamma_eff, whose gamma0 derivative is 1.
    scale = m4pi_t12 * intensity
    g[..., 2] = scale
    g[..., 3] = scale * d_gamma_sd
    g[..., 4] = scale * d_r_sd
    g[..., 5] = scale * log_rt
    value = i0_pop2 * _cexp(m4pi_t12 * _sd(gamma0, gamma_sd, r_sd, gamma_tls,
                                           t12_ms, t23_ms, log_t23))
    return value, g, env


def _echo3_terms(t1_ms, tz_s, t0_us, t12_us, t23_us):
    delays = _echo3_delay_terms(t0_us, t12_us, t23_us)
    tz_ms = tz_s * 1e3
    t23_ms = delays[2]
    ea, a, b = _population_terms(t1_ms, tz_ms, t23_ms, _cexp(-t23_ms / tz_ms))
    return (ea, a, b, 0.5 * a * b) + delays


def _echo3_grad(i0, beta, gamma0, gamma_sd, r_sd, gamma_tls, ea, a, b, dpop_dbeta,
                m4pi_t12, t12_ms, t23_ms, log_t23, t12_rt, t23_rt, log_rt):
    value, g, _ = _echo3_columns(i0, _population(beta, ea, a, b), dpop_dbeta,
                                 gamma0, gamma_sd, r_sd, gamma_tls, m4pi_t12,
                                 t12_ms, t23_ms, log_t23, t12_rt, t23_rt, log_rt, 6)
    return value, g


# echo3 with T_1 free: T_1 is the last parameter, so the population terms
# are formed on every call.

def _echo3_free_t1_terms(tz_s, t0_us, t12_us, t23_us):
    delays = _echo3_delay_terms(t0_us, t12_us, t23_us)
    tz_ms = tz_s * 1e3
    return (tz_ms, _cexp(-delays[2] / tz_ms)) + delays


def _echo3_free_t1_grad(i0, beta, gamma0, gamma_sd, r_sd, gamma_tls, t1_ms, tz_ms, eb,
                        m4pi_t12, t12_ms, t23_ms, log_t23, t12_rt, t23_rt, log_rt):
    ea, a, b = _population_terms(t1_ms, tz_ms, t23_ms, eb)
    pop = _population(beta, ea, a, b)
    value, g, env = _echo3_columns(i0, pop, _HALF * a * b, gamma0, gamma_sd, r_sd,
                                   gamma_tls, m4pi_t12, t12_ms, t23_ms, log_t23,
                                   t12_rt, t23_rt, log_rt, 7)
    # Squares are products: pow(t, 2) on a scalar is not always the
    # correctly rounded t*t that a (B, 1) column gets.
    t1_sq = t1_ms * t1_ms
    dea = ea * t23_ms / t1_sq
    degenerate = _degenerate(t1_ms, tz_ms)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.divide(tz_ms, tz_ms - t1_ms)
        dw = tz_ms / ((tz_ms - t1_ms) * (tz_ms - t1_ms))
        dpop_dt1 = np.where(
            degenerate,
            dea + _HALF * beta * (dea * t23_ms / t1_ms - ea * t23_ms / t1_sq),
            dea + _HALF * beta * (dw * (eb - ea) - w * dea))
    g[..., 6] = i0 * _TWO * pop * dpop_dt1 * env
    return value, g


def stimulated_echo_intensity(tl: ThreeLevelParams, sd: SpectralDiffusionParams,
                              t12_us, t23_us):
    """Stimulated-echo intensity: population factor squared times the
    dephasing envelope exp(-4*pi*t12*Gamma_eff(t12, t23)).
    """
    t23 = _asarray(t23_us, "t23_us")
    if np.any(t23 < sd.t0_us):
        raise ValueError("t23_us must be >= t0_us")
    t12 = _asarray(t12_us, "t12_us", minimum=0.0)
    out = _echo3_grad(tl.i0, tl.beta, sd.gamma0_khz, sd.gamma_sd_khz, sd.r_sd_khz,
                      sd.gamma_tls_khz,
                      *_echo3_terms(tl.t1_ms, tl.tz_s, sd.t0_us, t12, t23))[0]
    ref = t23_us if np.ndim(t23_us) >= np.ndim(t12_us) else t12_us
    return _maybe_scalar(out, ref)


# ---------------------------------------------------------------------------
# Field/temperature dependence of the diffusion amplitude
# ---------------------------------------------------------------------------

def _sech2_terms(temp_k, b_t):
    b = np.asarray(b_t, dtype=float)
    two_t = 2.0 * temp_k
    return MU_B_OVER_K_B, b, two_t, MU_B_OVER_K_B * b / two_t


def _sech2_grad(gamma_max, g, mu, b, two_t, cb):
    k = np.clip(g * cb, _EXP_LO, _EXP_HI)
    sech2 = _ONE / np.cosh(k) ** 2
    grad = np.empty(np.shape(k) + (2,))
    grad[..., 0] = sech2
    grad[..., 1] = _NEG_TWO * gamma_max * sech2 * np.tanh(k) * cb
    # g * cb is not g * mu * b / two_t to the last bit, so the values keep
    # the direct formula's argument.
    value = gamma_max / np.cosh(np.clip(g * mu * b / two_t, _EXP_LO, _EXP_HI)) ** 2
    return value, grad


def sech2_sd_amplitude(gamma_max_khz, g, b_t, temp_k):
    """Flip-flop diffusion amplitude gamma_max*sech^2(g*mu_B*B/(2*k_B*T))."""
    if temp_k <= 0:
        raise ValueError("temp_k must be > 0")
    b = _asarray(b_t, "b_t")
    return _maybe_scalar(_sech2_grad(gamma_max_khz, g, *_sech2_terms(temp_k, b))[0], b_t)
