"""Damped Gauss-Newton least squares over the model catalog.

Fits run in an unconstrained internal parameter space (log for
positive-only parameters, logit for box-bounded ones) with analytic
Jacobians mapped through the transform chain rule.  Uncertainties come
from an SVD of the weighted residual Jacobian in natural parameter
coordinates, scaled by the reduced sum of squares.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .catalog import dnatural_dinternal, get_model, to_internal, to_natural

# Damping schedule: multiplicative, reject *3 / accept /3.
_LAMBDA_UP = 3.0
_LAMBDA_DOWN = 3.0
_LAMBDA_MAX = 1e12

# Singular values below this fraction of the largest are treated as zero;
# parameters loading on such directions get unbounded errors.
_SVD_RCOND = 1e-12


class FitError(ValueError):
    """Raised for undeterminable or invalid fit problems."""


@dataclass(frozen=True)
class FitConfig:
    """Settings shared by all fits.

    residual_space "auto" resolves to log-intensity for decay models and
    linear for linewidth models.  weights "auto" resolves to uniform in
    log space and relative (sigma proportional to observed) in linear
    space when no per-point sigma is supplied.  The window, when set,
    masks the independent time axis of 1-D traces; masked points have no
    influence on the result at all.
    """

    residual_space: str = "auto"    # "linear" | "log-intensity" | "auto"
    weights: str = "auto"           # "uniform" | "relative" | "auto"
    max_iterations: int = 200
    tol_sse_rel: float = 1e-12
    tol_grad: float = 1e-10
    tol_step: float = 1e-12
    restarts: int = 1
    seed: int = 0
    window: tuple = None            # (t_min, t_max) in the x unit, or None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tol_sse_rel <= 0 or self.tol_grad <= 0 or self.tol_step <= 0:
            raise ValueError("convergence thresholds must be > 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.residual_space not in ("auto", "linear", "log-intensity"):
            raise ValueError(f"unknown residual_space {self.residual_space!r}")
        if self.weights not in ("auto", "uniform", "relative"):
            raise ValueError(f"unknown weights {self.weights!r}")
        if self.window is not None:
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


def uncertainties(fit: FitResult):
    """Per-parameter one-sigma standard errors of a fit."""
    return dict(fit.stderr)


def _resolve_space(spec, cfg):
    if cfg.residual_space != "auto":
        return cfg.residual_space
    return "log-intensity" if spec.kind == "decay" else "linear"


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
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (n,):
            raise FitError("sigma length disagrees with data")
        if np.any(sigma <= 0):
            raise FitError("sigma values must be > 0")

    if cfg.window is not None and spec.x_columns == 1:
        mask = window_mask(x, cfg.window)
        x = x[mask]
        y = y[mask]
        if sigma is not None:
            sigma = sigma[mask]

    space = _resolve_space(spec, cfg)
    if space == "log-intensity" and np.any(y <= 0):
        raise FitError("log-intensity residuals need strictly positive data; "
                       "use residual_space='linear'")

    if sigma is not None:
        w = 1.0 / sigma if space == "linear" else y / sigma
    else:
        mode = cfg.weights
        if mode == "auto":
            mode = "uniform" if space == "log-intensity" else "relative"
        if mode == "uniform":
            w = np.ones(y.shape)
        else:
            scale = np.maximum(np.abs(y), 1e-30)
            w = 1.0 / scale if space == "linear" else np.ones(y.shape)
    return x, y, w, space


def _residuals(spec, theta, x, y, w, space, fixed):
    m = spec.eval_fn(theta, x, fixed)
    if space == "log-intensity":
        if np.any(m <= 0) or not np.all(np.isfinite(m)):
            return None, None
        return w * (np.log(m) - np.log(y)), m
    if not np.all(np.isfinite(m)):
        return None, None
    return w * (m - y), m


def _jacobian(spec, theta, x, m, w, space, fixed):
    jn = spec.jac_fn(theta, x, fixed)
    if space == "log-intensity":
        jn = jn / m[:, None]
    return w[:, None] * jn


def fit(model_id, x, y, init, *, sigma=None, cfg=None, fixed=None):
    """Weighted least-squares fit of one catalogued model.

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
    spec = get_model(model_id)
    cfg = cfg or FitConfig()
    fixed = dict(fixed or {})
    missing = [n for n in spec.fixed_names if n not in fixed]
    if missing:
        raise FitError(f"model {model_id!r} needs fixed values for {missing}")

    x, y, w, space = _prepare(spec, x, y, sigma, cfg)
    p = len(spec.params)
    n = y.size
    if n < p + 1:
        raise FitError(f"need at least {p + 1} points inside the window, got {n}")

    theta0 = np.array([float(init[ps.name]) for ps in spec.params])
    u = to_internal(spec, theta0)
    theta = to_natural(spec, u)
    r, m = _residuals(spec, theta, x, y, w, space, fixed)
    if r is None:
        raise FitError("model is not finite at the initial parameters")
    sse = float(r @ r)
    j = _jacobian(spec, theta, x, m, w, space, fixed) * dnatural_dinternal(spec, theta)[None, :]

    jtj_diag_max = float((j * j).sum(axis=0).max())
    lam = 1e-3 * jtj_diag_max if jtj_diag_max > 0 else 1e-3
    sse_trace = [sse]
    converged = False
    n_iter = 0

    for n_iter in range(1, cfg.max_iterations + 1):
        g = j.T @ r
        if float(np.abs(g).max(initial=0.0)) < cfg.tol_grad:
            converged = True
            break
        a = j.T @ j
        try:
            step = np.linalg.solve(a + lam * np.eye(p), -g)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(a + lam * np.eye(p), -g, rcond=None)
        if float(np.abs(step).max()) <= cfg.tol_step * (1.0 + float(np.abs(u).max())):
            # The damped step has shrunk to nothing; at large damping a
            # rejected descent step implies a numerically zero gradient.
            converged = True
            break
        u_try = u + step
        theta_try = to_natural(spec, u_try)
        r_try, m_try = _residuals(spec, theta_try, x, y, w, space, fixed)
        if r_try is None:
            lam = min(lam * _LAMBDA_UP, _LAMBDA_MAX)
            continue
        sse_try = float(r_try @ r_try)
        if sse_try < sse:
            drop = sse - sse_try
            u, theta, r, m, sse = u_try, theta_try, r_try, m_try, sse_try
            sse_trace.append(sse)
            j = (_jacobian(spec, theta, x, m, w, space, fixed)
                 * dnatural_dinternal(spec, theta)[None, :])
            lam = max(lam / _LAMBDA_DOWN, 1e-15)
            if drop <= cfg.tol_sse_rel * max(sse, 1e-300):
                converged = True
                break
        else:
            lam = min(lam * _LAMBDA_UP, _LAMBDA_MAX)
            if lam >= _LAMBDA_MAX:
                # Damping saturated without an acceptable step; no further
                # progress is possible from here.
                break

    dof = n - p
    j_nat = _jacobian(spec, theta, x, m, w, space, fixed)
    cov, stderr, unbounded = _covariance(j_nat, sse, dof)

    flags = []
    if unbounded:
        flags.extend(f"unbounded:{spec.param_names[k]}" for k in unbounded)
    if model_id == "field" and theta[3] <= theta[4]:
        # Canonical labeling expects the quenched term's g to exceed the
        # rising term's g; a violation marks a suspect basin, not a swap.
        flags.append("g-ordering")
    if not converged:
        flags.append("not-converged")

    return FitResult(
        model_id=model_id,
        param_names=spec.param_names,
        params=dict(zip(spec.param_names, theta.tolist())),
        stderr=dict(zip(spec.param_names, stderr.tolist())),
        covariance=cov,
        sse=sse,
        dof=dof,
        converged=converged,
        n_iterations=n_iter,
        n_restarts_agreeing=1,
        residuals=r,
        sse_trace=sse_trace,
        flags=tuple(flags),
        fixed=fixed,
    )


def _covariance(j, sse, dof):
    """(J^T J)^-1 scaled by sse/dof via SVD, with near-singular directions
    reported as unbounded instead of numerically exploding."""
    n, p = j.shape
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


def multi_start_fit(model_id, x, y, init, *, sigma=None, cfg=None, fixed=None):
    """Best of ``cfg.restarts`` fits from jittered starts.

    The first start uses ``init`` as given; later starts jitter every
    parameter by a seeded log-uniform factor in [0.5, 1.5] (box-bounded
    parameters are jittered inside their box).  Returns the lowest-SSE
    result, with the count of restarts whose SSE agrees with it within 1%.
    """
    spec = get_model(model_id)
    cfg = cfg or FitConfig()
    rng = np.random.default_rng(cfg.seed)
    results = []
    errors = []
    for k in range(cfg.restarts):
        trial = dict(init)
        if k > 0:
            for ps in spec.params:
                f = float(np.exp(rng.uniform(np.log(0.5), np.log(1.5))))
                v = trial[ps.name]
                if ps.transform == "log":
                    trial[ps.name] = v * f
                else:
                    width = ps.hi - ps.lo
                    trial[ps.name] = min(ps.lo + (v - ps.lo) * f,
                                         ps.hi - 1e-6 * width)
        try:
            results.append(fit(model_id, x, y, trial, sigma=sigma, cfg=cfg,
                               fixed=fixed))
        except FitError as exc:
            errors.append(str(exc))
    if not results:
        raise FitError("all restarts failed: " + "; ".join(errors[:3]))
    best = min(results, key=lambda res: res.sse)
    agree = sum(1 for res in results
                if res.sse <= best.sse * 1.01 + 1e-300)
    best.n_restarts_agreeing = agree
    return best
