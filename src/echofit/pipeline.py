"""Batch fitting across measurement conditions and report emission.

The batch runners never abort on a single bad trace: the failing row is
kept, flagged, with NaN values, so table lengths always match the input
and the remaining rows are bit-identical to a run without the bad trace.
"""

import os

import numpy as np

from . import models
from .fitting import FitConfig, FitError, multi_start_batch, multi_start_fit, window_mask
from .guesses import initial_guess
from .params import FieldModelParams
from .presets import (
    FIELD_7MK,
    SD_7MK_009T,
    SD_7MK_009T_SIGMA,
    T12_SET_US,
    THREE_LEVEL_7MK_009T,
)
from .synth import SynthSpec, synth_trace
from .trace import ScanTable, write_table

# Default 2ppe fit window in microseconds; skips the modulated early part
# of the decay.
DEFAULT_2PPE_WINDOW = (0.25, None)


def _condition_axis(traces):
    fields = {tr.field_t for tr in traces}
    temps = {tr.temperature_k for tr in traces}
    if len(fields) > 1 and len(temps) > 1:
        raise ValueError("traces vary in both field and temperature; "
                         "split the batch by one of them")
    return "temperature" if len(temps) > 1 else "field"


def _condition_value(trace, axis):
    return trace.temperature_k if axis == "temperature" else trace.field_t


def _fit_scan(model_id, axis, rows, readout, cfg):
    """Tables and fits of a condition scan, all rows fitted in one
    :func:`fitting.multi_start_batch` call.

    ``rows`` are ``(condition, problem)``, problem being ``(x, y, fixed,
    flags)`` or the error that stopped its preparation.  Each problem is
    guessed on the samples its fit sees, so its result equals
    ``initial_guess`` plus ``multi_start_fit`` on it alone.  ``readout``
    maps each quantity to a function giving a FitResult's ``(value,
    stderr)``.  A failed row keeps its place, NaN and ``failed:``-flagged.
    """
    guessed, problems = [], []
    for _, problem in rows:
        guess = problem
        if not isinstance(problem, Exception):
            x, y, fixed, _ = problem
            seen = window_mask(x, cfg.window) if x.ndim == 1 else slice(None)
            try:
                guess = initial_guess(model_id, x[seen], y[seen], fixed)
                problems.append((x, y, guess.params, None, fixed))
            except ValueError as exc:
                guess = exc
        guessed.append(guess)
    outcomes = iter(multi_start_batch(model_id, problems, cfg=cfg))

    fits, flags, cells = [], [], []
    for (_, problem), guess in zip(rows, guessed):
        res = guess if isinstance(guess, Exception) else next(outcomes)
        if isinstance(res, Exception):
            fits.append(None)
            flags.append(f"failed: {res}")
            cells.append([(np.nan, np.nan)] * len(readout))
            continue
        fits.append(res)
        degenerate = ("guess-degenerate",) if guess.degenerate else ()
        flags.append(";".join(res.flags + problem[3] + degenerate))
        cells.append([read(res) for read in readout.values()])
    cond = [condition for condition, _ in rows]
    cells = np.array(cells)
    tables = {q: ScanTable(axis, q, np.array(cond), cells[:, k, 0], cells[:, k, 1],
                           list(flags))
              for k, q in enumerate(readout)}
    return tables, fits


def _param(name):
    """Readout of one fitted parameter and its standard error."""
    return lambda res: (res.params[name], res.stderr[name])


def _gamma_eff(res):
    """Linewidth from the fitted phase-memory time, with first-order error
    propagation."""
    tm, s_tm = res.params["tm_us"], res.stderr["tm_us"]
    return models.gamma_eff_from_tm(tm), 1e3 * s_tm / (np.pi * tm ** 2)


def batch_fit_2ppe(traces, cfg=None, normalize=False):
    """Per-trace stretched-exponential fits over a condition scan.

    Every trace is guessed first; then all traces' restarts are fitted in
    lockstep (:func:`fitting.multi_start_batch`), each trace's result equal
    to ``multi_start_fit`` on that trace alone.

    Returns ``(tables, fits)`` where tables maps quantity id (gamma_eff,
    i0, x) to a ScanTable and fits is the per-trace FitResult list (None
    for failed rows).  gamma_eff comes from the fitted phase-memory time
    with first-order error propagation.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("no traces given")
    bad = [tr.sequence for tr in traces if tr.sequence != "2ppe"]
    if bad:
        raise ValueError(f"batch_fit_2ppe expects 2ppe traces, got {bad[0]!r}")
    cfg = cfg or FitConfig(window=DEFAULT_2PPE_WINDOW, restarts=4)
    axis = _condition_axis(traces)

    rows = []
    for tr in traces:
        x, y = tr.time_us, tr.intensity
        mask = window_mask(x, cfg.window)
        if normalize and (not np.any(mask) or np.max(y[mask]) <= 0):
            problem = FitError("no positive in-window intensity to normalize by")
        else:
            problem = (x, y / np.max(y[mask]) if normalize else y, {}, ())
        rows.append((_condition_value(tr, axis), problem))
    readout = {"gamma_eff": _gamma_eff, "i0": _param("i0"), "x": _param("x")}
    return _fit_scan("mims", axis, rows, readout, cfg)


def _number(value, name):
    """``value`` as a float; a ValueError naming ``name`` when it is not a
    number (a YAML key left empty gives None)."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _resolve_tz(fixed, temperature_k, field_t):
    # A key missing from a table entry reads as None, and so fails the
    # condition like an empty one.
    for row in fixed.get("tz_table", ()):
        if (np.isclose(_number(row.get("temperature_k"), "tz_table temperature_k"),
                       temperature_k, rtol=1e-9)
                and np.isclose(_number(row.get("field_t"), "tz_table field_t"),
                               field_t, rtol=1e-9)):
            return _number(row.get("tz_s"), "tz_table tz_s"), False
    if "tz_s" in fixed:
        return _number(fixed["tz_s"], "tz_s"), False
    return 1.0, True


def batch_fit_3ppe(traces, cfg=None, fixed=None):
    """Joint stimulated-echo fits, one per (temperature, field) condition.

    All traces of a condition share the model parameters across their
    fixed t12 values; the reference timescale t0 is the smallest waiting
    time of the condition.  T1 is fixed (default 9 ms) unless
    fixed["free_t1"] is true; the sublevel lifetime comes from
    fixed["tz_s"] or a per-condition fixed["tz_table"], defaulting to
    1 s with an "tz-assumed" flag.  Every condition is guessed first; then
    all conditions' restarts are fitted in lockstep, each with its own
    fixed values, and each condition's result equals ``multi_start_fit``
    on that condition alone.

    Returns ``(tables, fits)`` with one table per fitted quantity
    (gamma0, gamma_tls, gamma_sd, r_sd, beta), one row per condition.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("no traces given")
    bad = [tr.sequence for tr in traces if tr.sequence != "3ppe-vs-t23"]
    if bad:
        raise ValueError(f"batch_fit_3ppe expects 3ppe-vs-t23 traces, got {bad[0]!r}")
    cfg = cfg or FitConfig(restarts=4)
    fixed = dict(fixed or {})
    axis = _condition_axis(traces)
    model_id = "echo3-free-t1" if fixed.get("free_t1") else "echo3"

    groups = {}
    for tr in traces:
        groups.setdefault((tr.temperature_k, tr.field_t), []).append(tr)

    rows = []
    for (temp_k, field_t) in sorted(groups):
        members = groups[(temp_k, field_t)]
        condition = temp_k if axis == "temperature" else field_t
        try:
            x = np.concatenate([
                np.column_stack([np.full(tr.n_points, tr.t12_us), tr.time_us])
                for tr in members])
            y = np.concatenate([tr.intensity for tr in members])
            t0_us = float(x[:, 1].min())
            tz_s, assumed = _resolve_tz(fixed, temp_k, field_t)
            fit_fixed = {"tz_s": tz_s, "t0_us": t0_us}
            if not fixed.get("free_t1"):
                fit_fixed["t1_ms"] = _number(fixed.get("t1_ms", 9.0), "t1_ms")
        except ValueError as exc:
            rows.append((condition, exc))
            continue
        rows.append((condition, (x, y, fit_fixed, ("tz-assumed",) if assumed else ())))
    readout = {"gamma0": _param("gamma0_khz"), "gamma_tls": _param("gamma_tls_khz"),
               "gamma_sd": _param("gamma_sd_khz"), "r_sd": _param("r_sd_khz"),
               "beta": _param("beta")}
    return _fit_scan(model_id, axis, rows, readout, cfg)


def emit_report(tables, fits, destination, extra_lines=(), fmt="%.6g"):
    """Write one table file per quantity plus a human-readable summary.

    Output is deterministic: stable table order, fixed float formatting,
    no timestamps.  Raises before writing anything if there are no tables.
    Returns the list of written paths.
    """
    if not tables:
        raise ValueError("emit_report needs at least one table")
    items = sorted(tables.items()) if isinstance(tables, dict) else \
        sorted((t.quantity_id, t) for t in tables)
    os.makedirs(destination, exist_ok=True)

    paths = []
    for qid, table in items:
        path = os.path.join(destination, f"{qid}_vs_{table.condition_axis}.txt")
        write_table(table, path, fmt=fmt)
        paths.append(path)

    lines = list(extra_lines)
    if lines:
        lines.append("")
    lines.append(f"fits: {sum(1 for f in fits if f is not None)} converged-or-flagged, "
                 f"{sum(1 for f in fits if f is None)} failed")
    for k, res in enumerate(fits):
        if res is None:
            lines.append(f"fit[{k}]: FAILED")
            continue
        lines.append(
            f"fit[{k}]: model={res.model_id} converged={res.converged} "
            f"iterations={res.n_iterations} sse={fmt % res.sse} dof={res.dof} "
            f"restarts_agreeing={res.n_restarts_agreeing}")
        for name in res.param_names:
            err = res.stderr[name]
            err_s = fmt % err if np.isfinite(err) else "unbounded"
            lines.append(f"    {name} = {fmt % res.params[name]} +- {err_s}")
        if res.fixed:
            fixed_s = " ".join(f"{k2}={fmt % v}" for k2, v in sorted(res.fixed.items()))
            lines.append(f"    fixed: {fixed_s}")
        if res.flags:
            lines.append(f"    flags: {';'.join(res.flags)}")

    # Field-model fits get their minimum reported alongside.
    gamma_tables = [t for _, t in items if t.quantity_id == "gamma_eff"
                    and t.condition_axis == "field"]
    for res in fits:
        if res is not None and res.model_id == "field":
            b_max = float(gamma_tables[0].condition.max()) if gamma_tables else 2.0
            p = FieldModelParams(**res.params)
            b_star, gamma_star, boundary = models.field_linewidth_minimum(
                p, res.fixed["temp_k"], b_max)
            where = f" (at {boundary} boundary)" if boundary else ""
            lines.append(f"field minimum: B* = {fmt % b_star} T, "
                         f"gamma* = {fmt % gamma_star} kHz{where}")

    summary = os.path.join(destination, "summary.txt")
    with open(summary, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    paths.append(summary)
    return paths


# ---------------------------------------------------------------------------
# Demo pipeline
# ---------------------------------------------------------------------------

# 14-point field scan in tesla, densest around the linewidth minimum.
DEMO_FIELD_GRID_T = (0.0, 0.01, 0.02, 0.04, 0.06, 0.09, 0.14, 0.22,
                     0.35, 0.55, 0.9, 1.3, 1.65, 2.0)
DEMO_TEMP_K = 0.007
DEMO_MIMS_X = 1.3


def demo_i0_of_field(b_t):
    """Zero-delay intensity rising from 0.3 toward 0.8 with field."""
    return 0.3 + 0.5 * (1.0 - np.exp(-(np.asarray(b_t, dtype=float) / 0.35) ** 2))


def _demo_2ppe_traces(seed):
    traces = []
    for k, b in enumerate(DEMO_FIELD_GRID_T):
        gamma = models.field_linewidth(FIELD_7MK, b, DEMO_TEMP_K)
        tm = models.tm_from_gamma_eff(gamma)
        spec = SynthSpec(
            model_id="mims",
            true_params={"i0": float(demo_i0_of_field(b)), "tm_us": tm,
                         "x": DEMO_MIMS_X},
            grid=(0.25, 3.0 * tm, 50, "log"),
            noise=("multiplicative", 0.02),
            seed=seed * 1000 + k,
            temperature_k=DEMO_TEMP_K,
            field_t=b,
        )
        traces.append(synth_trace(spec))
    return traces


def _demo_3ppe_traces(seed):
    truth = {
        "i0": THREE_LEVEL_7MK_009T.i0,
        "beta": THREE_LEVEL_7MK_009T.beta,
        "gamma0_khz": SD_7MK_009T.gamma0_khz,
        "gamma_sd_khz": SD_7MK_009T.gamma_sd_khz,
        "r_sd_khz": SD_7MK_009T.r_sd_khz,
        "gamma_tls_khz": SD_7MK_009T.gamma_tls_khz,
    }
    traces = []
    for j, t12 in enumerate(T12_SET_US):
        spec = SynthSpec(
            model_id="echo3",
            true_params=truth,
            grid=(50.0, 7500.0, 250, "log"),
            noise=("multiplicative", 0.03),
            seed=seed * 77 + j,
            temperature_k=DEMO_TEMP_K,
            field_t=0.09,
            fixed={"t1_ms": THREE_LEVEL_7MK_009T.t1_ms,
                   "tz_s": THREE_LEVEL_7MK_009T.tz_s,
                   "t0_us": SD_7MK_009T.t0_us,
                   "t12_us": t12},
        )
        traces.append(synth_trace(spec))
    return traces, truth


def run_demo(destination, seed=1, fmt="%.6g"):
    """Synthesize the reference-parameter datasets, run both batch fits and
    emit the full report.

    Returns ``(paths, checks)``; checks is a list of (name, passed,
    detail) for the embedded consistency checks.
    """
    checks = []

    # Field scan: per-field decay fits, then the linewidth model on top.
    traces2 = _demo_2ppe_traces(seed)
    cfg2 = FitConfig(window=DEFAULT_2PPE_WINDOW, restarts=4, seed=seed)
    tables2, fits2 = batch_fit_2ppe(traces2, cfg=cfg2)

    gamma_tab = tables2["gamma_eff"]
    cfg_field = FitConfig(restarts=8, seed=seed + 1)
    guess = initial_guess("field", gamma_tab.condition, gamma_tab.value,
                          {"temp_k": DEMO_TEMP_K})
    fit_field = multi_start_fit("field", gamma_tab.condition, gamma_tab.value,
                                guess.params, sigma=gamma_tab.stderr,
                                cfg=cfg_field, fixed={"temp_k": DEMO_TEMP_K})

    zero_field = models.field_linewidth(FIELD_7MK, 0.0, DEMO_TEMP_K)
    checks.append(("zero-field-linewidth",
                   abs(zero_field - 40.02) < 1e-9,
                   f"reference evaluation at B=0 gives {fmt % zero_field} kHz"))

    nearest = int(np.argmin(np.abs(gamma_tab.condition - 0.14)))
    argmin_fit = int(np.nanargmin(gamma_tab.value))
    checks.append(("scan-minimum-position",
                   argmin_fit == nearest,
                   f"fitted linewidth minimum at B = {fmt % gamma_tab.condition[argmin_fit]} T"))

    # Waiting-time scans at one condition, fitted jointly across t12.
    traces3, truth3 = _demo_3ppe_traces(seed)
    cfg3 = FitConfig(restarts=4, seed=seed + 13)
    tables3, fits3 = batch_fit_3ppe(
        traces3, cfg=cfg3,
        fixed={"t1_ms": THREE_LEVEL_7MK_009T.t1_ms,
               "tz_s": THREE_LEVEL_7MK_009T.tz_s})

    recovery_lines = ["recovery at 7 mK / 0.09 T (3 t12 traces, 3% noise):"]
    res3 = fits3[0]
    recovered_ok = res3 is not None
    if res3 is not None:
        for name, sig in SD_7MK_009T_SIGMA.items():
            delta = abs(res3.params[name] - truth3[name])
            ok = delta <= 3.0 * sig
            recovered_ok &= ok
            recovery_lines.append(
                f"    {name}: truth {fmt % truth3[name]}, fitted "
                f"{fmt % res3.params[name]} +- {fmt % res3.stderr[name]}, "
                f"|delta| = {fmt % delta} ({'within' if ok else 'OUTSIDE'} 3x band {fmt % (3 * sig)})")
    checks.append(("3ppe-recovery", recovered_ok,
                   "all shared parameters within 3x reference bands"))

    p_fit = FieldModelParams(**fit_field.params)
    b_star, gamma_star, _ = models.field_linewidth_minimum(p_fit, DEMO_TEMP_K, 2.0)

    head = [
        f"demo seed: {seed}",
        f"field grid: {len(DEMO_FIELD_GRID_T)} points in [0, 2] T at {DEMO_TEMP_K} K",
        "2ppe noise: 2% multiplicative, window 0.25 us",
        f"t23 scans: t12 = {list(T12_SET_US)} us, 250 points in [50, 7500] us, 3% noise",
        "",
        f"zero-field reference linewidth: {fmt % zero_field} kHz",
        f"fitted field-model minimum: B* = {fmt % b_star} T, gamma* = {fmt % gamma_star} kHz",
        "",
    ]
    head.extend(recovery_lines)
    head.append("")
    for name, ok, detail in checks:
        head.append(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")

    tables = dict(tables2)
    tables.update(tables3)
    fits = list(fits2) + [fit_field] + list(fits3)
    paths = emit_report(tables, fits, destination, extra_lines=head, fmt=fmt)
    return paths, checks
