"""Registry connecting model ids to packed-vector evaluation, analytic
Jacobians, parameter transforms, initial guesses and fit defaults.

The fitter works on flat parameter vectors in an unconstrained internal
space; this module owns the mapping between that space and the natural,
unit-carrying parameters.  Positive-only parameters use a log transform,
box-bounded ones a logit transform, so bounds hold by construction.

Every model kernel in :mod:`echofit.models` and its gradient take their
arguments in one order: the free parameters in ``params`` order, then
the fixed quantities in ``fixed_names`` order, then the x column(s).  So
a spec's ``eval_fn``/``jac_fn`` bind the kernels directly, with no
per-model adapter.  A fixed quantity is promoted to a free parameter by
putting it first in ``fixed_names`` of the base model and then, in the
derived spec, moving it to the end of ``params``: the kernel's argument
list stays the same, and only the gradient must add the new column (see
``echo3-free-t1``).
"""

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import guesses, models
from .params import BETA_BOUNDS, EXPONENT_BOUNDS, X_BOUNDS

# Margin used when clipping an initial value into an open interval before
# applying a log/logit transform.
_EDGE = 1e-9


@dataclass(frozen=True)
class ParamSpec:
    name: str
    transform: str  # "log" or "logit"
    lo: float = 0.0
    hi: float = 0.0


@dataclass(frozen=True)
class ModelSpec:
    model_id: str
    kind: str  # "decay" fits intensities, "linewidth" fits rates
    params: tuple
    fixed_names: tuple
    eval_fn: Callable  # (theta, x, fixed) -> (n,)
    jac_fn: Callable   # (theta, x, fixed) -> (n, p)
    x_columns: int     # 1 for a single axis, 2 for (t12_us, t23_us) pairs
    guess: Callable    # (x, y, fixed) -> guesses.GuessResult

    @property
    def param_names(self):
        return tuple(p.name for p in self.params)


# ---------------------------------------------------------------------------
# Transform helpers
# ---------------------------------------------------------------------------

def to_internal(spec: ModelSpec, theta):
    theta = np.asarray(theta, dtype=float)
    u = np.empty_like(theta)
    for j, ps in enumerate(spec.params):
        if ps.transform == "log":
            u[j] = np.log(max(theta[j], _EDGE * max(1.0, abs(theta[j]))))
        else:
            width = ps.hi - ps.lo
            p = np.clip(theta[j], ps.lo + _EDGE * width, ps.hi - _EDGE * width)
            u[j] = np.log((p - ps.lo) / (ps.hi - p))
    return u


def to_natural(spec: ModelSpec, u):
    u = np.asarray(u, dtype=float)
    theta = np.empty_like(u)
    for j, ps in enumerate(spec.params):
        if ps.transform == "log":
            theta[j] = np.exp(u[j])
        else:
            s = 1.0 / (1.0 + np.exp(-u[j]))
            theta[j] = ps.lo + (ps.hi - ps.lo) * s
    return theta


def dnatural_dinternal(spec: ModelSpec, theta):
    """Diagonal of d(natural)/d(internal) at the natural point ``theta``."""
    theta = np.asarray(theta, dtype=float)
    d = np.empty_like(theta)
    for j, ps in enumerate(spec.params):
        if ps.transform == "log":
            d[j] = theta[j]
        else:
            d[j] = (theta[j] - ps.lo) * (ps.hi - theta[j]) / (ps.hi - ps.lo)
    return d


# ---------------------------------------------------------------------------
# Model catalog
# ---------------------------------------------------------------------------

def _spec(model_id, kind, params, fixed_names, x_columns, value, grad, guess):
    """A ModelSpec whose eval_fn/jac_fn call the kernels ``value``/``grad``
    as kernel(*theta, *fixed values in fixed_names order, *x columns)."""
    def bind(kernel):
        if x_columns == 1:
            return lambda theta, x, fixed: kernel(
                *theta, *[fixed[k] for k in fixed_names], x)
        return lambda theta, x, fixed: kernel(
            *theta, *[fixed[k] for k in fixed_names], *x.T)

    return ModelSpec(model_id=model_id, kind=kind, params=params,
                     fixed_names=fixed_names, eval_fn=bind(value),
                     jac_fn=bind(grad), x_columns=x_columns, guess=guess)


_LOG = "log"

_SD_PARAMS = (
    ParamSpec("gamma0_khz", _LOG),
    ParamSpec("gamma_sd_khz", _LOG),
    ParamSpec("r_sd_khz", _LOG),
    ParamSpec("gamma_tls_khz", _LOG),
)
_ECHO3_PARAMS = (
    ParamSpec("i0", _LOG),
    ParamSpec("beta", "logit", *BETA_BOUNDS),
) + _SD_PARAMS

CATALOG = {
    "mims": _spec(
        model_id="mims",
        kind="decay",
        params=(
            ParamSpec("i0", _LOG),
            ParamSpec("tm_us", _LOG),
            ParamSpec("x", "logit", *X_BOUNDS),
        ),
        fixed_names=(),
        x_columns=1,
        value=models._mims,
        grad=models._mims_grad,
        guess=guesses.mims,
    ),
    "field": _spec(
        model_id="field",
        kind="linewidth",
        params=(
            ParamSpec("gamma0_khz", _LOG),
            ParamSpec("alpha1_khz", _LOG),
            ParamSpec("alpha2_khz", _LOG),
            ParamSpec("g1", _LOG),
            ParamSpec("g2", _LOG),
        ),
        fixed_names=("temp_k",),
        x_columns=1,
        value=models._field,
        grad=models._field_grad,
        guess=guesses.field,
    ),
    "temp": _spec(
        model_id="temp",
        kind="linewidth",
        params=(
            ParamSpec("floor_khz", _LOG),
            ParamSpec("amp_khz", _LOG),
            ParamSpec("exponent_n", "logit", *EXPONENT_BOUNDS),
        ),
        fixed_names=(),
        x_columns=1,
        value=models._temp,
        grad=models._temp_grad,
        guess=guesses.temp,
    ),
    "sech2": _spec(
        model_id="sech2",
        kind="linewidth",
        params=(
            ParamSpec("gamma_max_khz", _LOG),
            ParamSpec("g", _LOG),
        ),
        fixed_names=("temp_k",),
        x_columns=1,
        value=models._sech2,
        grad=models._sech2_grad,
        guess=guesses.sech2,
    ),
    "sd": _spec(
        model_id="sd",
        kind="linewidth",
        params=_SD_PARAMS,
        fixed_names=("t0_us",),
        x_columns=2,
        value=models._sd,
        grad=models._sd_grad,
        guess=guesses.sd,
    ),
    "echo3": _spec(
        model_id="echo3",
        kind="decay",
        params=_ECHO3_PARAMS,
        fixed_names=("t1_ms", "tz_s", "t0_us"),
        x_columns=2,
        value=models._echo3,
        grad=models._echo3_grad,
        guess=guesses.echo3,
    ),
    # echo3 with its first fixed quantity, t1_ms, promoted to the last
    # free parameter: the kernels' argument order is unchanged.
    "echo3-free-t1": _spec(
        model_id="echo3-free-t1",
        kind="decay",
        params=_ECHO3_PARAMS + (ParamSpec("t1_ms", _LOG),),
        fixed_names=("tz_s", "t0_us"),
        x_columns=2,
        value=models._echo3,
        grad=functools.partial(models._echo3_grad, free_t1=True),
        guess=guesses.echo3_free_t1,
    ),
}


def get_model(model_id):
    try:
        return CATALOG[model_id]
    except KeyError:
        raise ValueError(f"unknown model id {model_id!r}; "
                         f"known: {', '.join(sorted(CATALOG))}") from None


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

def _draw_inputs(model_id, rng):
    """Random valid (theta, x, fixed) for gradient checking."""
    lu = lambda lo, hi: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    if model_id == "mims":
        theta = [lu(0.1, 10), lu(5, 100), rng.uniform(0.4, 3.5)]
        x = np.sort(np.concatenate([[0.0], rng.uniform(0.0, 30.0, 12)]))
        return np.array(theta), x, {}
    if model_id == "field":
        theta = [lu(1, 20), lu(5, 60), lu(2, 40), lu(0.05, 1), lu(0.001, 0.1)]
        # Zero and near-zero anchors keep the quenched-term column resolvable
        # by finite differences even when the random fields are all large.
        x = np.sort(np.concatenate([[0.0, 0.02], rng.uniform(0.0, 2.0, 12)]))
        return np.array(theta), x, {"temp_k": lu(0.005, 0.3)}
    if model_id == "temp":
        theta = [lu(0.5, 15), lu(5, 200), rng.uniform(0.6, 2.8)]
        x = np.sort(rng.uniform(0.007, 0.6, 12))
        return np.array(theta), x, {}
    if model_id == "sech2":
        theta = [lu(1, 60), lu(0.01, 1)]
        x = np.sort(np.concatenate([[0.0], rng.uniform(0.0, 2.0, 12)]))
        return np.array(theta), x, {"temp_k": lu(0.005, 0.3)}
    if model_id == "sd":
        theta = [lu(1, 20), lu(5, 80), lu(0.05, 5), lu(1, 30)]
        t12 = rng.uniform(0.0, 2.0, 12)
        t23 = rng.uniform(50.0, 7500.0, 12)
        return np.array(theta), np.column_stack([t12, t23]), {"t0_us": 50.0}
    if model_id in ("echo3", "echo3-free-t1"):
        theta = [lu(0.1, 5), rng.uniform(0.01, 1.9), lu(1, 20), lu(5, 80),
                 lu(0.05, 5), lu(1, 30)]
        fixed = {"tz_s": lu(0.5, 5), "t0_us": 50.0}
        if model_id == "echo3-free-t1":
            theta.append(lu(2, 20))
        else:
            fixed["t1_ms"] = lu(2, 20)
        t12 = rng.uniform(0.05, 1.5, 12)
        t23 = rng.uniform(50.0, 7500.0, 12)
        return np.array(theta), np.column_stack([t12, t23]), fixed
    raise ValueError(f"unknown model id {model_id!r}")


def finite_difference_jacobian(spec: ModelSpec, theta, x, fixed):
    """Central differences with step 1e-6*max(|p|, 1) per parameter."""
    theta = np.asarray(theta, dtype=float)
    cols = []
    for j in range(theta.size):
        h = 1e-6 * max(abs(theta[j]), 1.0)
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        cols.append((spec.eval_fn(tp, x, fixed) - spec.eval_fn(tm, x, fixed))
                    / (2.0 * h))
    return np.column_stack(cols)


def gradient_check(model_id, n_draws=100, seed=0):
    """Max relative deviation between analytic and finite-difference
    Jacobians over ``n_draws`` random valid inputs.

    The deviation of each entry is measured relative to the largest
    magnitude in its parameter column; central differences cannot resolve
    agreement at entries far below their own roundoff floor, so a plain
    elementwise ratio would report noise there.
    """
    spec = get_model(model_id)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        theta, x, fixed = _draw_inputs(model_id, rng)
        ja = spec.jac_fn(theta, x, fixed)
        jf = finite_difference_jacobian(spec, theta, x, fixed)
        scale = np.maximum(np.abs(ja).max(axis=0), np.abs(jf).max(axis=0))
        scale = np.maximum(scale, 1e-12)
        worst = max(worst, float((np.abs(ja - jf) / scale[None, :]).max()))
    return worst
