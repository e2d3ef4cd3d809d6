"""Data-driven starting values for the catalogued models.

These are deliberately crude; they only need to land inside the basin of
the global minimum, with multi-start jitter covering the rest.  Each
model's spec in :mod:`echofit.catalog` carries its guess, a function
``(x, y, fixed) -> GuessResult``; :func:`initial_guess` is the entry point.
"""

from dataclasses import dataclass, replace

import numpy as np

from .constants import MU_B_OVER_K_B
from .presets import THREE_LEVEL_7MK_009T

# sech^2(k) = 1/2 at k = ln(1 + sqrt(2)).
_SECH2_HALF_ARG = float(np.log(1.0 + np.sqrt(2.0)))


@dataclass(frozen=True)
class GuessResult:
    params: dict
    degenerate: bool = False


def _positive(v, fallback):
    return float(v) if np.isfinite(v) and v > 0 else float(fallback)


def _c_at_temp_k(model_id, fixed):
    """mu_B / (k_B T) at the fixed ``temp_k``, which the engine's number
    rule reads: a FitError names it when missing or not finite."""
    # Imported here because fitting imports the catalog, which imports
    # this module for its guesses.
    from .fitting import _numbers
    return MU_B_OVER_K_B / _numbers(model_id, "fixed", ("temp_k",), fixed)[0]


def mims(t_us, y, fixed):
    y0 = _positive(y[0], max(np.max(y), 1e-12))
    yn = y / y0
    below = np.nonzero(yn < np.exp(-2.0))[0]
    spread = (np.max(y) - np.min(y)) / max(abs(np.max(y)), 1e-300)
    degenerate = False
    if below.size:
        k = below[0]
        if k == 0:
            t_cross = t_us[0]
        else:
            # log-linear interpolation between the bracketing samples
            la, lb = np.log(max(yn[k - 1], 1e-300)), np.log(max(yn[k], 1e-300))
            frac = (-2.0 - la) / (lb - la) if lb != la else 0.5
            t_cross = t_us[k - 1] + frac * (t_us[k] - t_us[k - 1])
        tm = 2.0 * max(t_cross, 1e-9)
    elif yn[-1] < 1.0 and spread > 1e-3:
        tm = -4.0 * t_us[-1] / np.log(yn[-1])
    else:
        tm = 10.0 * max(t_us[-1], 1.0)
        degenerate = True   # no decay visible: T_M is unconstrained
    return GuessResult({"i0": y0, "tm_us": float(tm), "x": 1.0}, degenerate)


def field(b_t, y, fixed):
    c = _c_at_temp_k("field", fixed)
    span = max(np.max(y) - np.min(y), 1e-12)
    gamma0 = _positive(np.min(y), 1e-3)
    alpha1 = _positive(y[0] - gamma0, 0.1 * span)
    alpha2 = _positive(y[-1] - gamma0, 0.1 * span)

    half1 = np.nonzero(y <= gamma0 + 0.5 * alpha1)[0]
    b_half1 = b_t[half1[0]] if half1.size and b_t[half1[0]] > 0 else np.median(b_t)
    g1 = np.log(2.0) / (c * max(b_half1, 1e-12))

    rise = y - gamma0 - alpha1 * np.exp(-np.clip(g1 * c * b_t, 0, 700))
    half2 = np.nonzero(rise >= 0.5 * alpha2)[0]
    b_half2 = b_t[half2[0]] if half2.size and b_t[half2[0]] > 0 else np.max(b_t)
    g2 = np.log(2.0) / (c * max(b_half2, 1e-12))
    g2 = min(g2, 0.9 * g1)

    degenerate = span < 1e-9 * max(abs(np.max(y)), 1.0)   # a flat linewidth curve
    return GuessResult(
        {"gamma0_khz": gamma0, "alpha1_khz": alpha1, "alpha2_khz": alpha2,
         "g1": float(g1), "g2": float(max(g2, 1e-6))},
        degenerate)


def temp(temp_k, y, fixed):
    floor = _positive(np.min(y), 1e-3)
    n = 1.3
    amp = _positive((y[-1] - floor) / np.max(temp_k) ** n, 1.0)
    return GuessResult({"floor_khz": floor, "amp_khz": amp, "exponent_n": n})


def sech2(b_t, y, fixed):
    c = _c_at_temp_k("sech2", fixed)
    gmax = _positive(y[np.argmin(np.abs(b_t))], max(np.max(y), 1e-12))
    half = np.nonzero(y <= 0.5 * gmax)[0]
    b_half = b_t[half[0]] if half.size and b_t[half[0]] > 0 else np.max(b_t)
    g = 2.0 * _SECH2_HALF_ARG / (c * max(b_half, 1e-12))
    return GuessResult({"gamma_max_khz": gmax, "g": float(g)})


def _linewidth_vs_t23_guesses(t23_us, gamma, t0_us):
    """Shared decomposition of an effective-linewidth-vs-waiting-time curve."""
    order = np.argsort(t23_us)
    t23 = t23_us[order]
    gam = gamma[order]
    gamma0 = _positive(gam[0], 1e-3)
    # Slope per decade over the late half of the waiting-time range.
    mid = len(t23) // 2
    dec = np.log10(t23[-1] / t23[mid]) if t23[mid] > 0 else 1.0
    gamma_tls = _positive((gam[-1] - gam[mid]) / max(dec, 1e-6), 1.0)
    tls_at_max = gamma_tls * np.log10(max(t23[-1] / t0_us, 1.0))
    gamma_sd = _positive(np.max(gam) - gamma0 - tls_at_max, 1.0)
    r_sd = 1.0 / max(np.median(t23) * 1e-3, 1e-9)
    return gamma0, gamma_sd, r_sd, gamma_tls


def sd(x, y, fixed):
    gamma0, gamma_sd, r_sd, gamma_tls = _linewidth_vs_t23_guesses(
        x[:, 1], np.asarray(y, dtype=float),
        fixed.get("t0_us", float(np.min(x[:, 1]))))
    return GuessResult({"gamma0_khz": gamma0, "gamma_sd_khz": gamma_sd,
                        "r_sd_khz": r_sd, "gamma_tls_khz": gamma_tls})


def echo3(x, y, fixed):
    t12 = x[:, 0]
    t23 = x[:, 1]
    uniq = np.unique(t12)
    # A single t12 value cannot separate dephasing from population decay.
    degenerate = uniq.size < 2
    t0_us = fixed.get("t0_us", float(np.min(t23)))
    if degenerate:
        gamma = np.full(t23.shape, 10.0)
        gamma0, gamma_sd, r_sd, gamma_tls = 8.0, 20.0, 1.0, 10.0
    else:
        # Intensity ratio between the extreme t12 traces cancels the
        # population factor, exposing Gamma_eff(t23) directly.
        lo, hi = uniq[0], uniq[-1]
        mask_lo, mask_hi = t12 == lo, t12 == hi
        common, ia, ib = np.intersect1d(t23[mask_lo], t23[mask_hi],
                                        return_indices=True)
        if common.size >= 3:
            y_lo = np.asarray(y)[mask_lo][ia]
            y_hi = np.asarray(y)[mask_hi][ib]
            ratio = np.maximum(y_hi, 1e-300) / np.maximum(y_lo, 1e-300)
            gamma = -np.log(ratio) / (4.0 * np.pi * (hi - lo) * 1e-3)
            gamma = np.maximum(gamma, 1e-3)
            gamma0, gamma_sd, r_sd, gamma_tls = _linewidth_vs_t23_guesses(
                common, gamma, t0_us)
        else:
            gamma0, gamma_sd, r_sd, gamma_tls = 8.0, 20.0, 1.0, 10.0
    params = {
        "i0": _positive(np.max(y), 1.0),
        "beta": 0.1,
        "gamma0_khz": gamma0,
        "gamma_sd_khz": gamma_sd,
        "r_sd_khz": r_sd,
        "gamma_tls_khz": gamma_tls,
    }
    return GuessResult(params, degenerate)


def echo3_free_t1(x, y, fixed):
    """The echo3 guess with T1 started at the reference 9 ms."""
    g = echo3(x, y, fixed)
    return replace(g, params={**g.params, "t1_ms": THREE_LEVEL_7MK_009T.t1_ms})


def initial_guess(model_id, x, y, fixed=None):
    """Heuristic starting parameters for ``model_id`` given data (x, y).

    Raises ValueError for fewer than 3 points.  The returned GuessResult
    carries a degenerate flag when the data cannot constrain the model
    (constant decay traces, single-t12 stimulated-echo sets).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0] if x.ndim == 2 else x.size
    if n < 3:
        raise ValueError("initial_guess needs at least 3 points")
    # Imported here because the catalog imports this module for its guesses.
    from .catalog import get_model
    return get_model(model_id).guess(x, y, fixed or {})
