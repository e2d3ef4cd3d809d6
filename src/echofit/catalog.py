"""Registry connecting model ids to packed-vector evaluation, analytic
Jacobians, parameter transforms, initial guesses and fit defaults.

The fitter works on flat parameter vectors in an unconstrained internal
space; this module owns the mapping between that space and the natural,
unit-carrying parameters.  Positive-only parameters use a log transform,
box-bounded ones a logit transform, so bounds hold by construction.

Every model has two functions in :mod:`echofit.models`: a terms
function, which takes the fixed quantities in ``fixed_names`` order and
then the x column(s), and one kernel, which takes the free parameters in
``params`` order and then the terms and returns ``(values, Jacobian)``.
A spec binds them directly, with no per-model adapter: ``prepare(x,
fixed)`` returns the terms, ``jac_fn(theta, terms)`` the kernel's pair,
so an LM step needs one kernel call, and ``eval_fn(theta, terms)`` the
kernel's values alone.  The terms are the subexpressions that depend on
x and the fixed quantities alone, so a fit prepares them once and every
LM iteration reuses them.  Each term is an
exact leading subexpression of the formula it stands in (``2.0 * t12``
of ``2.0 * t12 / tm``, but not ``c * b`` of ``-g1 * c * b``, which is
evaluated as ``(-g1 * c) * b``), so the values and Jacobians keep every
bit of the direct formulas.  A term is either an array with one row per
problem, shaped like x's rows, or a value of the fixed quantities alone,
shared by every row.

A fixed quantity that a derived spec frees (``echo3-free-t1``) can no
longer be folded into the terms, so the derived spec has its own terms
function and kernel; the kernel forms the affected terms on every call
and shares the rest with the base model.

``eval_fn``, ``jac_fn`` and the transforms also take a stack of B
problems: a (B, p) theta, with terms prepared from x as (B, n) rows (or
(B, n, 2) pairs), gives (B, n) values and (B, n, p) Jacobians.  The
kernels then see each parameter as a (B, 1) column.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import guesses, models
from .params import BETA_BOUNDS, EXPONENT_BOUNDS, X_BOUNDS

# Margin used when clipping an initial value into an open interval before
# applying a log/logit transform.  The transforms' scalar operands are 0-d
# float64 arrays: a Python float operand costs NumPy a scalar promotion on
# every call, and gives the same bits.
_EDGE = np.array(1e-9)
_ONE = np.array(1.0)


@dataclass(frozen=True)
class ParamSpec:
    name: str
    transform: str  # "log" or "logit"
    lo: float = 0.0
    hi: float = 0.0


@dataclass(frozen=True)
class ModelSpec:
    model_id: str
    space: str  # residuals: "log-intensity" for decays, "linear" for rates
    params: tuple
    fixed_names: tuple
    prepare: Callable  # (x, fixed) -> tuple of terms
    eval_fn: Callable  # (theta, terms) -> jac_fn's values alone
    jac_fn: Callable   # (theta, terms) -> (values, Jacobian): (n,) and
                       # (n, p), or (B, n) and (B, n, p) for a (B, p) theta
    x_columns: int     # 1 for a single axis, 2 for (t12_us, t23_us) pairs
    guess: Callable    # (x, y, fixed) -> guesses.GuessResult

    @property
    def param_names(self):
        return tuple(p.name for p in self.params)

    @cached_property
    def boxes(self):
        """``(column, lo, hi)`` of every logit-transformed parameter."""
        return tuple((j, p.lo, p.hi) for j, p in enumerate(self.params)
                     if p.transform == "logit")


# ---------------------------------------------------------------------------
# Transform helpers
# ---------------------------------------------------------------------------

# Each transform maps parameter j to column j along the last axis, so a
# (p,) vector and a (B, p) stack are handled alike.  The log rule runs on
# the whole array in one operation; the logit columns listed in
# ``ModelSpec.boxes`` are then overwritten.

def to_internal(spec: ModelSpec, theta):
    theta = np.asarray(theta, dtype=float)
    u = np.log(np.maximum(theta, _EDGE * np.maximum(_ONE, np.abs(theta))))
    for j, lo, hi in spec.boxes:
        width = hi - lo
        p = np.clip(theta[..., j], lo + _EDGE * width, hi - _EDGE * width)
        u[..., j] = np.log((p - lo) / (hi - p))
    return u


def to_natural(spec: ModelSpec, u):
    u = np.asarray(u, dtype=float)
    theta = np.exp(u)
    for j, lo, hi in spec.boxes:
        s = _ONE / (_ONE + np.exp(-u[..., j]))
        theta[..., j] = lo + (hi - lo) * s
    return theta


def dnatural_dinternal(spec: ModelSpec, theta):
    """Diagonal of d(natural)/d(internal) at the natural point ``theta``,
    as a new array."""
    d = np.array(theta, dtype=float)
    for j, lo, hi in spec.boxes:
        t = d[..., j]
        d[..., j] = (t - lo) * (hi - t) / (hi - lo)
    return d


# ---------------------------------------------------------------------------
# Model catalog
# ---------------------------------------------------------------------------

def _spec(model_id, space, params, fixed_names, x_columns, terms, kernel, guess):
    """A ModelSpec whose ``prepare`` calls ``terms(*fixed values in
    fixed_names order, *x columns)`` and whose jac_fn calls
    ``kernel(*theta, *terms)``; eval_fn keeps the kernel's values.  A
    (B, p) theta is passed as p columns of shape (B, 1)."""
    def prepare(x, fixed):
        xs = (x,) if x_columns == 1 else np.moveaxis(x, -1, 0)
        return terms(*[fixed[k] for k in fixed_names], *xs)

    def jac_fn(theta, prepared):
        params = theta.T[:, :, None] if np.ndim(theta) == 2 else theta
        return kernel(*params, *prepared)

    def eval_fn(theta, prepared):
        # The kernel's own binding, not spec.jac_fn, which a tracer may
        # wrap: an evaluation is not a Jacobian call.
        return jac_fn(theta, prepared)[0]

    return ModelSpec(model_id=model_id, space=space, params=params,
                     fixed_names=fixed_names, prepare=prepare, eval_fn=eval_fn,
                     jac_fn=jac_fn, x_columns=x_columns, guess=guess)


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
        space="log-intensity",
        params=(
            ParamSpec("i0", _LOG),
            ParamSpec("tm_us", _LOG),
            ParamSpec("x", "logit", *X_BOUNDS),
        ),
        fixed_names=(),
        x_columns=1,
        terms=models._mims_terms,
        kernel=models._mims_grad,
        guess=guesses.mims,
    ),
    "field": _spec(
        model_id="field",
        space="linear",
        params=(
            ParamSpec("gamma0_khz", _LOG),
            ParamSpec("alpha1_khz", _LOG),
            ParamSpec("alpha2_khz", _LOG),
            ParamSpec("g1", _LOG),
            ParamSpec("g2", _LOG),
        ),
        fixed_names=("temp_k",),
        x_columns=1,
        terms=models._field_terms,
        kernel=models._field_grad,
        guess=guesses.field,
    ),
    "temp": _spec(
        model_id="temp",
        space="linear",
        params=(
            ParamSpec("floor_khz", _LOG),
            ParamSpec("amp_khz", _LOG),
            ParamSpec("exponent_n", "logit", *EXPONENT_BOUNDS),
        ),
        fixed_names=(),
        x_columns=1,
        terms=models._temp_terms,
        kernel=models._temp_grad,
        guess=guesses.temp,
    ),
    "sech2": _spec(
        model_id="sech2",
        space="linear",
        params=(
            ParamSpec("gamma_max_khz", _LOG),
            ParamSpec("g", _LOG),
        ),
        fixed_names=("temp_k",),
        x_columns=1,
        terms=models._sech2_terms,
        kernel=models._sech2_grad,
        guess=guesses.sech2,
    ),
    "sd": _spec(
        model_id="sd",
        space="linear",
        params=_SD_PARAMS,
        fixed_names=("t0_us",),
        x_columns=2,
        terms=models._sd_terms,
        kernel=models._sd_grad,
        guess=guesses.sd,
    ),
    "echo3": _spec(
        model_id="echo3",
        space="log-intensity",
        params=_ECHO3_PARAMS,
        fixed_names=("t1_ms", "tz_s", "t0_us"),
        x_columns=2,
        terms=models._echo3_terms,
        kernel=models._echo3_grad,
        guess=guesses.echo3,
    ),
    # echo3 with its first fixed quantity, t1_ms, promoted to the last
    # free parameter.
    "echo3-free-t1": _spec(
        model_id="echo3-free-t1",
        space="log-intensity",
        params=_ECHO3_PARAMS + (ParamSpec("t1_ms", _LOG),),
        fixed_names=("tz_s", "t0_us"),
        x_columns=2,
        terms=models._echo3_free_t1_terms,
        kernel=models._echo3_free_t1_grad,
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
    terms = spec.prepare(x, fixed)
    cols = []
    for j in range(theta.size):
        h = 1e-6 * max(abs(theta[j]), 1.0)
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        cols.append((spec.eval_fn(tp, terms) - spec.eval_fn(tm, terms)) / (2.0 * h))
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
        _, ja = spec.jac_fn(theta, spec.prepare(x, fixed))
        jf = finite_difference_jacobian(spec, theta, x, fixed)
        scale = np.maximum(np.abs(ja).max(axis=0), np.abs(jf).max(axis=0))
        scale = np.maximum(scale, 1e-12)
        worst = max(worst, float((np.abs(ja - jf) / scale[None, :]).max()))
    return worst
