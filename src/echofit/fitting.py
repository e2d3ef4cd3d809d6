"""Damped Gauss-Newton least squares over the model catalog.

Fits run in an unconstrained internal parameter space (log for
positive-only parameters, logit for box-bounded ones) with analytic
Jacobians mapped through the transform chain rule.  Uncertainties come
from an SVD of the weighted residual Jacobian in natural parameter
coordinates, scaled by the reduced sum of squares.

Every fit runs in one Levenberg-Marquardt engine that steps B problems
in lockstep: one kernel call for the values and Jacobians of the trial
points, one stacked J^T r and J^T J and one stacked solve per iteration,
whatever B is.  Each row keeps its own damping, stop reason and SSE
trace, and its result is bit-identical to fitting that row alone.
Every fit goes through ``multi_start_batch`` (used by both ``pipeline``
batch runners), which groups the problems by in-window point count and
fits each group as one batch: every problem is checked and prepared
once, and its starts are a block of consecutive rows, with its fixed
values (T1, T_Z, t0, temperature) repeated down (B, 1) columns, so
problems at different conditions share a batch.  ``multi_start_fit``
is one problem, and ``fit`` is ``multi_start_fit`` with one start.
Rows of different point counts are never padded into one batch: padding
changes how BLAS accumulates the sums, and so the last bits of the
results.

A caller sets four things (``FitConfig``).  A row stops when its largest
gradient entry is below 1e-10, its damped step at most 1e-12 * (1 + max
|u|) in internal coordinates u, or an accepted step lowers the SSE by at
most 1e-12 of the new SSE.  Each model names its residual space
(``ModelSpec.space``): log intensity, unweighted without sigma, or
linear, relative (1 / |y|) without sigma.

A problem fails once, with one FitError (or ValueError) that names why:
bad data, too few points in the window, an init or fixed value that is
missing or not a finite number (one rule checks both and the window's
edges; a bool is not one, nor an int beyond the float range), or a model
that is not finite at every start.

The engine computes each iteration only what changed.  The model's
data-only terms are prepared once per batch (``ModelSpec.prepare``), and
the engine's arrays hold the live rows only: accepted rows take their
trial values and Jacobians in place, the rest of the step (stop tests,
damping) runs on whole arrays, and rows are gathered only when some
stop, at which point they are written out and dropped.  Each row
carries one Jacobian, the weighted one in natural coordinates, which the
covariance takes; the internal-coordinate Jacobian the step takes is
formed from it once per iteration, for the live rows.

On arrays this small an iteration costs NumPy calls, not arithmetic, so
the engine keeps the count of calls down without changing a bit.  Its
scalar operands are 0-d float64 arrays (a Python float operand costs a
scalar promotion on every call), reductions and counts call the ufuncs
and ``np.count_nonzero`` directly, an iteration in which every row
accepts skips the masked copies, and the damped systems go straight to
the LAPACK ``gesv`` gufunc under ``np.linalg.solve``, whose argument
checks they do not need.
"""

import math
from dataclasses import dataclass, field as dc_field, replace
from numbers import Integral, Real

import numpy as np
from numpy.linalg import _umath_linalg

from .catalog import dnatural_dinternal, get_model, to_internal, to_natural

# The engine's scalar operands are 0-d float64 arrays.  A Python float
# operand goes through NumPy's scalar promotion on every call, which
# about doubles the cost of a ufunc on a small array; a float64 operand
# of the same value gives the same bits.
_ONE = np.array(1.0)
_TINY = np.array(1e-300)

# Damping schedule: multiplicative, reject *3 / accept /3, starting at
# 1e-3 of the largest diagonal entry of J^T J.
_LAMBDA_START = np.array(1e-3)
_LAMBDA_UP = np.array(3.0)
_LAMBDA_DOWN = np.array(3.0)
_LAMBDA_MIN = np.array(1e-15)
_LAMBDA_MAX = np.array(1e12)

# Stop tolerances, as the module docstring states them.
_TOL_GRAD = np.array(1e-10)
_TOL_STEP = np.array(1e-12)
_TOL_SSE_REL = np.array(1e-12)

# Singular values below this fraction of the largest are treated as zero;
# parameters loading on such directions get unbounded errors.
_SVD_RCOND = 1e-12


class FitError(ValueError):
    """Raised for undeterminable or invalid fit problems."""


@dataclass(frozen=True)
class FitConfig:
    """What a caller sets: the iteration cap, the count of seeded starts,
    their seed, and a window on a one-axis model's time axis (masked
    points have no influence on the result at all).  The stop tolerances
    are engine constants, and the residual space is the model's."""

    max_iterations: int = 200
    restarts: int = 1
    seed: int = 0
    window: tuple = None            # (t_min, t_max) in the x unit, or None

    def __post_init__(self):
        # A value read from a file may be of any type.  Python counts a bool
        # as an int, but no bool is a count or a seed.
        for name in ("max_iterations", "restarts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.window is not None:
            if not (isinstance(self.window, (tuple, list)) and len(self.window) == 2
                    and all(e is None or _finite(e) for e in self.window)):
                raise ValueError("window must be None or a (lo, hi) pair whose edges "
                                 f"are each None or a finite number, got {self.window!r}")
            lo, hi = self.window
            if hi is not None and lo is not None and hi <= lo:
                raise ValueError("window upper edge must exceed lower edge")


@dataclass
class FitResult:
    model_id: str
    param_names: tuple
    params: dict
    stderr: dict
    covariance: np.ndarray
    sse: float
    dof: int
    converged: bool
    n_iterations: int
    n_restarts_agreeing: int
    residuals: np.ndarray
    sse_trace: list
    flags: tuple = ()
    fixed: dict = dc_field(default_factory=dict)

    def param_vector(self):
        return np.array([self.params[n] for n in self.param_names])


def window_mask(x, window):
    """Points of the 1-D axis ``x`` inside ``window``, a (lo, hi) pair whose
    None edges are open; every point when ``window`` is None."""
    mask = np.ones(x.shape, dtype=bool)
    if window is not None:
        lo, hi = window
        if lo is not None:
            mask &= x >= lo
        if hi is not None:
            mask &= x <= hi
    return mask


def _prepare(spec, x, y, sigma, cfg):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if spec.x_columns == 2:
        x = np.atleast_2d(x)
        if x.shape[1] != 2:
            raise FitError(f"model {spec.model_id!r} expects (t12_us, t23_us) pairs")
        n = x.shape[0]
    else:
        x = np.atleast_1d(x)
        n = x.size
    if y.shape != (n,):
        raise FitError("x and y lengths disagree")
    if not np.all(np.isfinite(x)):
        raise FitError("x values must be finite")
    if not np.all(np.isfinite(y)):
        raise FitError("y values must be finite")
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (n,):
            raise FitError("sigma length disagrees with data")
        if not np.all(sigma > 0):
            raise FitError("sigma values must be > 0")

    if cfg.window is not None:
        mask = window_mask(x, cfg.window)
        x = x[mask]
        y = y[mask]
        if sigma is not None:
            sigma = sigma[mask]

    linear = spec.space == "linear"
    if not linear and np.any(y <= 0):
        raise FitError(f"model {spec.model_id!r} fits log intensities, "
                       "which need strictly positive data")

    if sigma is not None:
        w = 1.0 / sigma if linear else y / sigma
    elif linear:
        w = 1.0 / np.maximum(np.abs(y), 1e-30)
    else:
        w = np.ones(y.shape)
    return x, y, w


def _finite(value):
    """Whether ``value`` is a finite real number.  A bool is not one, nor an
    int beyond the float range."""
    try:
        return (isinstance(value, Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:   # an int (or Fraction) beyond the float range
        return False


def _numbers(model_id, kind, names, values):
    """The ``kind`` ("init" or "fixed") values ``names`` of the mapping
    ``values`` as floats; a FitError names one missing or not finite."""
    values = values or {}
    missing = [n for n in names if n not in values]
    if missing:
        raise FitError(f"model {model_id!r} needs {kind} values for {missing}")
    for name in names:
        value = values[name]
        if not _finite(value):
            raise FitError(f"{kind} value {name} must be a finite number, got {value!r}")
    return np.array([values[n] for n in names], dtype=float)


def _problem(spec, x, y, sigma, cfg):
    """Prepared data ``(x, target, w)`` of one fit, where target is y in the
    residual space; raises FitError when it cannot be fitted."""
    x, y, w = _prepare(spec, x, y, sigma, cfg)
    p = len(spec.params)
    if y.size < p + 1:
        raise FitError(f"need at least {p + 1} points inside the window, got {y.size}")
    return x, y if spec.space == "linear" else np.log(y), w


def _evaluate(spec, theta, terms, target, w):
    """Weighted residuals, model values and weighted Jacobian in natural
    coordinates of every row from one ``jac_fn`` call.  ``w`` None stands
    for unit weights.  A row whose model is not finite (or, in log space,
    not positive) gets a non-finite residual, and so a non-finite SSE,
    which the engine never accepts."""
    m, jn = spec.jac_fn(theta, terms)
    if spec.space == "log-intensity":
        r = np.log(m) - target
        jn = jn / m[..., None]
    else:
        r = m - target
    if w is not None:
        r = w * r
        jn = w[..., None] * jn
    return r, m, jn


def _finite_rows(spec, m):
    """Rows whose model values are all finite and, in log space, positive."""
    finite = np.isfinite(m)
    if spec.space == "log-intensity":
        finite &= m > 0
    return np.logical_and.reduce(finite, axis=-1)


def _max_abs(a):
    """Largest magnitude in each row of a (B, p) array."""
    return np.maximum.reduce(np.abs(a), axis=1)


def _take(terms, rows, n_rows):
    """The prepared terms of the rows at the indices ``rows`` out of
    ``n_rows``.  A term with one entry per row is gathered; the others,
    values of the fixed quantities alone, are shared by every row."""
    return tuple(t.take(rows, axis=0) if np.shape(t)[:1] == (n_rows,) else t
                 for t in terms)


def _damped_solve(a, lam, g):
    """Steps solving (a + lam I) step = -g for every row, adding lam to the
    diagonal of ``a`` in place.

    The stack goes straight to the LAPACK ``gesv`` gufunc that
    ``np.linalg.solve`` wraps, which skips that function's argument checks;
    the gufunc signals a singular matrix as an invalid floating-point
    operation.  Then every row is solved on its own, and a singular row
    falls back to least squares.
    """
    p = a.shape[-1]
    a.reshape(len(a), p * p)[:, ::p + 1] += lam[:, None]
    b = -g[:, :, None]
    try:
        with np.errstate(invalid="raise"):
            return _umath_linalg.solve(a, b, signature="dd->d")[:, :, 0]
    except FloatingPointError:
        step = np.empty_like(g)
        for k in range(len(g)):
            try:
                step[k] = np.linalg.solve(a[k], -g[k])
            except np.linalg.LinAlgError:
                step[k], *_ = np.linalg.lstsq(a[k], -g[k], rcond=None)
        return step


@dataclass
class _Row:
    """Where the engine left one row."""
    theta: np.ndarray
    residuals: np.ndarray
    jac: np.ndarray        # weighted Jacobian in natural coordinates
    sse: float
    sse_trace: list
    n_iterations: int
    converged: bool


@dataclass
class _Live:
    """The rows the engine still steps.  Row k of every array belongs to
    the batch row ``rows[k]``."""
    rows: np.ndarray
    terms: tuple
    target: np.ndarray
    w: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    r: np.ndarray
    sse: np.ndarray
    jn: np.ndarray          # weighted Jacobian in natural coordinates
    lam: np.ndarray = None

    def take(self, keep):
        """The rows where the mask ``keep`` holds, gathered once."""
        idx = np.flatnonzero(keep)
        arrays = (self.rows, self.target, self.w, self.u, self.theta, self.r,
                  self.sse, self.jn, self.lam)
        rows, target, w, u, theta, r, sse, jn, lam = (
            None if a is None else a.take(idx, axis=0) for a in arrays)
        return _Live(rows, _take(self.terms, idx, keep.size), target, w, u, theta,
                     r, sse, jn, lam)


# Non-finite trial rows are rejected and non-finite starts fail, so their
# overflows, NaNs and logs of zero are expected and kept quiet.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _lm(spec, terms, target, w, theta0, max_iterations):
    """Levenberg-Marquardt on B rows of equal point count, in lockstep.

    ``terms`` are the model's terms prepared from the (B, n) x rows (or
    (B, n, 2) pairs), target and w (B, n), or w None for unit weights,
    theta0 the (B, p) starts.  Damping follows Moré (1978): *3 on a
    rejected step, /3 on an accepted one.  Each iteration makes one
    ``jac_fn`` call on the trial rows, and the accepted rows keep its
    Jacobian.  Only the live rows are held: a row that stops is written
    out and gathered away.  Returns a ``_Row`` per row, or None for a row
    whose model or SSE is not finite at its start.
    """
    u = to_internal(spec, theta0)
    theta = to_natural(spec, u)
    r, _, jn = _evaluate(spec, theta, terms, target, w)
    sse = np.vecdot(r, r)
    # A start whose model is not finite has a non-finite SSE.
    ok = np.isfinite(sse)
    traces = [[s] for s in sse.tolist()]
    out = [None] * len(traces)
    n_ok = np.count_nonzero(ok)
    if not n_ok:
        return out
    live = _Live(np.arange(len(traces)), terms, target, w, u, theta, r, sse, jn)
    if n_ok < ok.size:
        live = live.take(ok)

    def stop(done, converged, it):
        """Write out the rows where ``done`` holds; returns the rest, or
        None when no row is left."""
        stopped = np.flatnonzero(done).tolist()
        for k in stopped:
            i = live.rows[k]
            out[i] = _Row(live.theta[k], live.r[k].copy(), live.jn[k], traces[i][-1],
                          traces[i], it, bool(converged[k]))
        return live.take(~done) if len(stopped) < done.size else None

    for it in range(1, max_iterations + 1):
        # Internal-coordinate Jacobian.  Both operands of J^T J view it, so
        # NumPy computes J^T J exactly as j.T @ j does for a single matrix.
        j = live.jn * dnatural_dinternal(spec, live.theta)[:, None, :]
        if it == 1:
            diag_max = (j * j).sum(axis=1).max(axis=1)
            live.lam = np.where(diag_max > 0, _LAMBDA_START * diag_max, _LAMBDA_START)
        jt = j.transpose(0, 2, 1)
        g = np.matmul(jt, live.r[:, :, None])[:, :, 0]
        step = _damped_solve(np.matmul(jt, j), live.lam, g)
        # A vanishing gradient, or a damped step shrunk to nothing: at large
        # damping a rejected descent step implies a numerically zero
        # gradient.
        done = ((_max_abs(g) < _TOL_GRAD)
                | (_max_abs(step) <= _TOL_STEP * (_ONE + _max_abs(live.u))))
        if np.count_nonzero(done):
            live = stop(done, done, it)
            if live is None:
                return out
            step = step[~done]
        u_try = live.u + step
        theta_try = to_natural(spec, u_try)
        r_try, m_try, jn_try = _evaluate(spec, theta_try, live.terms, live.target,
                                         live.w)
        sse_try = np.vecdot(r_try, r_try)
        # A trial whose model is not finite has a non-finite SSE, so it is
        # never better.
        better = sse_try < live.sse
        converged = live.sse - sse_try <= _TOL_SSE_REL * np.maximum(sse_try, _TINY)

        n_better = np.count_nonzero(better)
        if n_better == better.size:
            live.lam = np.maximum(live.lam / _LAMBDA_DOWN, _LAMBDA_MIN)
            live.u, live.theta, live.r, live.sse, live.jn = (u_try, theta_try, r_try,
                                                             sse_try, jn_try)
            for i, s in zip(live.rows.tolist(), sse_try.tolist()):
                traces[i].append(s)
            done = converged
        else:
            live.lam = np.where(better, np.maximum(live.lam / _LAMBDA_DOWN, _LAMBDA_MIN),
                                np.minimum(live.lam * _LAMBDA_UP, _LAMBDA_MAX))
            if n_better:
                rows = better[:, None]
                for mine, trial, where in ((live.u, u_try, rows), (live.theta, theta_try, rows),
                                           (live.r, r_try, rows), (live.sse, sse_try, better),
                                           (live.jn, jn_try, better[:, None, None])):
                    np.copyto(mine, trial, where=where)
                for i, s in zip(live.rows[better].tolist(), sse_try[better].tolist()):
                    traces[i].append(s)
            converged &= better
            # Damping saturated without an acceptable step: no further
            # progress is possible.  A non-finite trial only raises the
            # damping.
            saturated = ~better & (live.lam >= _LAMBDA_MAX)
            if np.count_nonzero(saturated):
                saturated &= _finite_rows(spec, m_try)
            done = saturated | converged
        if np.count_nonzero(done):
            live = stop(done, converged, it)
            if live is None:
                return out
    stop(np.ones(live.rows.size, dtype=bool), np.zeros(live.rows.size, dtype=bool),
         max_iterations)
    return out


def _result(spec, row, n, fixed, agreeing):
    p = len(spec.params)
    dof = n - p
    cov, stderr, unbounded = _covariance(row.jac, row.sse, dof)

    flags = [f"unbounded:{spec.param_names[k]}" for k in unbounded]
    if spec.model_id == "field" and row.theta[3] <= row.theta[4]:
        # Canonical labeling expects the quenched term's g to exceed the
        # rising term's g; a violation marks a suspect basin, not a swap.
        flags.append("g-ordering")
    if not row.converged:
        flags.append("not-converged")

    return FitResult(
        model_id=spec.model_id,
        param_names=spec.param_names,
        params=dict(zip(spec.param_names, row.theta.tolist())),
        stderr=dict(zip(spec.param_names, stderr.tolist())),
        covariance=cov,
        sse=row.sse,
        dof=dof,
        converged=row.converged,
        n_iterations=row.n_iterations,
        n_restarts_agreeing=agreeing,
        residuals=row.residuals,
        sse_trace=row.sse_trace,
        flags=tuple(flags),
        fixed=fixed,
    )


def fit(model_id, x, y, init, *, sigma=None, cfg=None, fixed=None):
    """Weighted least-squares fit of one catalogued model from ``init``:
    :func:`multi_start_fit` with one start, whatever ``cfg.restarts`` is.

    Parameters
    ----------
    model_id : str
        Catalog key, e.g. "mims" or "echo3".
    x : array
        Independent variable; (n, 2) pairs of (t12_us, t23_us) for the
        two-delay models.
    y : array
        Observed values (intensities or linewidths in kHz).
    init : dict
        Starting values keyed by parameter name.
    sigma : array, optional
        Per-point one-sigma noise in the units of y.
    cfg : FitConfig, optional
    fixed : dict, optional
        Values for the model's non-fitted quantities (t1_ms, tz_s, t0_us,
        temp_k as applicable).

    Returns
    -------
    FitResult
    """
    cfg = replace(cfg or FitConfig(), restarts=1)
    return multi_start_fit(model_id, x, y, init, sigma=sigma, cfg=cfg, fixed=fixed)


def _covariance(j, sse, dof):
    """(J^T J)^-1 scaled by sse/dof via SVD, with near-singular directions
    reported as unbounded instead of numerically exploding."""
    n, p = j.shape
    if not np.all(np.isfinite(j)):
        # An overflowed Jacobian bounds no parameter; the SVD would not
        # converge on it.
        return np.full((p, p), np.nan), np.full(p, np.inf), list(range(p))
    u_, s, vt = np.linalg.svd(j, full_matrices=False)
    good = s > _SVD_RCOND * s[0] if s[0] > 0 else np.zeros(p, dtype=bool)
    inv_s2 = np.zeros(p)
    inv_s2[good] = 1.0 / s[good] ** 2
    scale = sse / dof if dof > 0 else np.nan
    cov = (vt.T * inv_s2[None, :]) @ vt * scale
    stderr = np.sqrt(np.maximum(np.diag(cov), 0.0))
    unbounded = []
    if not np.all(good):
        bad = vt[~good, :]
        for k in range(p):
            if np.any(np.abs(bad[:, k]) > 1e-3):
                stderr[k] = np.inf
                unbounded.append(k)
    return cov, stderr, unbounded


def _jitter_factors(spec, cfg):
    """Seeded log-uniform factors in [0.5, 1.5], one row per restart after
    the first; a single start draws none."""
    if cfg.restarts == 1:
        return []
    if cfg.seed < 0:
        raise ValueError(f"seed must be >= 0 with restarts > 1, got {cfg.seed}")
    rng = np.random.default_rng(cfg.seed)
    draws = rng.uniform(np.log(0.5), np.log(1.5), size=(cfg.restarts - 1, len(spec.params)))
    return np.exp(draws).tolist()


def _starts(spec, init, factors):
    """The (restarts, p) starts: the init vector as given, then one
    jittered copy per row of ``factors`` (box-bounded parameters are
    jittered inside their box)."""
    factors = np.array(factors, dtype=float).reshape(-1, init.size)
    with np.errstate(over="ignore"):    # an overflowed start is failed as not finite
        jittered = init * factors
    for j, lo, hi in spec.boxes:
        jittered[:, j] = np.minimum(lo + (init[j] - lo) * factors[:, j],
                                    hi - 1e-6 * (hi - lo))
    return np.vstack([init, jittered])


def multi_start_batch(model_id, problems, *, cfg=None):
    """:func:`multi_start_fit` of every ``(x, y, init, sigma, fixed)``
    problem, with all starts of all problems fitted in lockstep.

    Each problem carries its own fixed values (None when the model has
    none), so problems of one model at different conditions share a batch.
    Problems are grouped by in-window point count, and each group is one
    lockstep batch in which a problem's starts are consecutive rows.
    Returns one entry per problem: its FitResult, or the FitError (or
    ValueError) that fitting it alone would raise, a bad init or fixed
    value included.  A problem that fails leaves the other entries
    unchanged.  An unknown model id, a window on a two-column model and a
    negative seed with restarts > 1 raise a ValueError before any fit.
    """
    spec = get_model(model_id)
    cfg = cfg or FitConfig()
    if cfg.window is not None and spec.x_columns != 1:
        raise ValueError(f"window {cfg.window} applies to one-axis models only, not to "
                         f"{model_id!r}, which fits (t12_us, t23_us) pairs")
    factors = _jitter_factors(spec, cfg)
    out, groups = [], {}
    for x, y, init, sigma, fixed in problems:
        try:
            values = _numbers(model_id, "fixed", spec.fixed_names, fixed)
            init = _numbers(model_id, "init", spec.param_names, init)
            data = _problem(spec, x, y, sigma, cfg)
        except ValueError as exc:
            out.append(exc)
            continue
        groups.setdefault(data[1].size, []).append(
            (len(out), data, _starts(spec, init, factors), values, dict(fixed or {})))
        out.append(None)

    r = cfg.restarts
    for n, members in groups.items():
        index, data, starts, values, fixed = zip(*members)
        x, target, w = (np.repeat(np.stack(a), r, axis=0) for a in zip(*data))
        values = np.repeat(np.array(values), r, axis=0)
        columns = {name: values[:, j:j + 1] for j, name in enumerate(spec.fixed_names)}
        # Unit weights, as in every log-space fit without sigma, are left
        # out of the loop: 1.0 * a == a, bit for bit.
        if np.all(w == 1.0):
            w = None
        rows = _lm(spec, spec.prepare(x, columns), target, w, np.concatenate(starts),
                   cfg.max_iterations)
        for k, i in enumerate(index):
            results = [row for row in rows[k * r:(k + 1) * r] if row is not None]
            if not results:
                out[i] = FitError("model is not finite at the initial parameters")
                continue
            best = min(results, key=lambda row: row.sse)
            agree = sum(1 for row in results if row.sse <= best.sse * 1.01 + 1e-300)
            out[i] = _result(spec, best, n, fixed[k], agree)
    return out


def multi_start_fit(model_id, x, y, init, *, sigma=None, cfg=None, fixed=None):
    """Best of ``cfg.restarts`` fits from jittered starts.

    The first start uses ``init`` as given; later starts jitter every
    parameter by a seeded log-uniform factor in [0.5, 1.5] (box-bounded
    parameters are jittered inside their box).  All starts are fitted in
    one lockstep batch.  Returns the lowest-SSE result, with the count of
    restarts whose SSE agrees with it within 1%.
    """
    (res,) = multi_start_batch(model_id, [(x, y, init, sigma, fixed)], cfg=cfg)
    if isinstance(res, Exception):
        raise res
    return res
