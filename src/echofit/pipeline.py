"""Batch fitting across measurement conditions, table fits and reports.

A batch takes a non-empty list of its model's traces (by the rule of
:mod:`synth`) whose temperature or field varies, never both: its axis.
The batch runners never abort on a single bad trace: the failing row is
kept, flagged, with NaN values, so table lengths always match the input
and the remaining rows are bit-identical to a run without the bad trace.
The demo and the CLI fit every linewidth table through ``fit_table``.

The demo runs its 3PPE half in a worker process; see :func:`run_demo`.
"""

import atexit
import os
import signal
import threading
from collections.abc import Mapping
from contextlib import contextmanager, suppress
from dataclasses import replace

import numpy as np

from . import models
from .fitting import FitConfig, multi_start_batch, multi_start_fit
from .presets import (FIELD_7MK, PRESETS, SD_7MK_009T_SIGMA, T12_SET_US,
                      THREE_LEVEL_7MK_009T_FIXED)
from .synth import SynthSpec, scan_table, synth_trace, trace_sequence
from .trace import ScanTable, write_table
from .values import FitError, _finite, _numbers

# Default 2ppe fit window in microseconds; skips the modulated early part
# of the decay.
DEFAULT_2PPE_WINDOW = (0.25, None)

# Number format of report tables and summaries, and of the CLI's output.
REPORT_FMT = "%.6g"

# Sublevel lifetime T_Z in seconds taken where no value is given.
ASSUMED_TZ_S = 1.0

# The reference condition the demo's waiting-time scans are made at.
_DEMO_3PPE = PRESETS["3ppe-7mK-0.09T"]


def _batch_traces(runner, model_id, traces):
    """The list of ``traces`` that ``runner`` fits with ``model_id``, checked,
    its condition axis and the function giving a trace's condition."""
    traces = list(traces)
    if not traces:
        raise ValueError("no traces given")
    sequence = trace_sequence(model_id)
    bad = [tr.sequence for tr in traces if tr.sequence != sequence]
    if bad:
        raise ValueError(f"{runner} expects {sequence} traces, got {bad[0]!r}")
    fields = {tr.field_t for tr in traces}
    temps = {tr.temperature_k for tr in traces}
    if len(fields) > 1 and len(temps) > 1:
        raise ValueError("traces vary in both field and temperature; "
                         "split the batch by one of them")
    if len(temps) > 1:
        return traces, "temperature", lambda tr: tr.temperature_k
    return traces, "field", lambda tr: tr.field_t


def _fit_scan(model_id, axis, rows, readout, cfg):
    """Tables and fits of a condition scan, all rows fitted in one
    :func:`fitting.multi_start_batch` call.

    ``rows`` are ``(condition, problem)``, problem being ``(x, y, fixed,
    flags)`` or the error that stopped its preparation; x and y hold only
    the samples the fit sees.  Each result equals ``multi_start_fit`` with
    init None (the model's guess) on its problem alone, and a row's flags
    are the fit's, then the problem's.  ``readout`` maps each quantity to
    a function giving a FitResult's ``(value, stderr)``.  A failed row
    keeps its place, NaN and ``failed:``-flagged.
    """
    ready = [problem for _, problem in rows if not isinstance(problem, Exception)]
    outcomes = iter(multi_start_batch(
        model_id, [(x, y, None, None, fixed) for x, y, fixed, _ in ready], cfg=cfg))

    fits, flags, cells = [], [], []
    for _, problem in rows:
        res = problem if isinstance(problem, Exception) else next(outcomes)
        if isinstance(res, Exception):
            fits.append(None)
            flags.append(f"failed: {res}")
            cells.append([(np.nan, np.nan)] * len(readout))
            continue
        fits.append(res)
        flags.append(";".join(res.flags + problem[3]))
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


def batch_fit_2ppe(traces, cfg=None, window=DEFAULT_2PPE_WINDOW, normalize=False):
    """Per-trace stretched-exponential fits over a condition scan.

    ``window`` (microseconds, see :func:`window_mask`; its edges are each
    None or a finite number) is checked before any fit.  Each trace is
    cut to its samples inside it (normalized to their maximum if
    ``normalize``); then all traces' restarts are fitted in lockstep
    (:func:`fitting.multi_start_batch`), each trace's result equal to
    ``multi_start_fit`` with init None (the model's guess) on its cut
    samples alone.

    Returns ``(tables, fits)`` where tables maps quantity id (gamma_eff,
    i0, x) to a ScanTable and fits is the per-trace FitResult list (None
    for failed rows).  gamma_eff comes from the fitted phase-memory time
    with first-order error propagation.
    """
    if window is not None:
        if not (isinstance(window, (tuple, list)) and len(window) == 2
                and all(e is None or _finite(e) for e in window)):
            raise ValueError("window must be None or a (lo, hi) pair whose edges "
                             f"are each None or a finite number, got {window!r}")
        lo, hi = window
        if hi is not None and lo is not None and hi <= lo:
            raise ValueError("window upper edge must exceed lower edge")
    traces, axis, condition_of = _batch_traces("batch_fit_2ppe", "mims", traces)
    cfg = cfg or FitConfig(restarts=4)

    rows = []
    for tr in traces:
        mask = window_mask(tr.time_us, window)
        x, y = tr.time_us[mask], tr.intensity[mask]
        if normalize and (not y.size or np.max(y) <= 0):
            problem = FitError("no positive in-window intensity to normalize by")
        else:
            problem = (x, y / np.max(y) if normalize else y, {}, ())
        rows.append((condition_of(tr), problem))
    readout = {"gamma_eff": _gamma_eff, "i0": _param("i0"), "x": _param("x")}
    return _fit_scan("mims", axis, rows, readout, cfg)


def _resolve_tz(model_id, fixed, temperature_k, field_t):
    # T_Z as given, and whether it is assumed.  The engine's number rule
    # checks each tz_table key when the lookup reaches it.
    for row in fixed.get("tz_table", ()):
        if all(np.isclose(_numbers(model_id, "tz_table", (key,), row)[0], value, rtol=1e-9)
               for key, value in (("temperature_k", temperature_k), ("field_t", field_t))):
            return row.get("tz_s"), False
    if "tz_s" in fixed:
        return fixed["tz_s"], False
    return ASSUMED_TZ_S, True


def batch_fit_3ppe(traces, cfg=None, fixed=None):
    """Joint stimulated-echo fits, one per (temperature, field) condition.

    All traces of a condition share the model parameters across their
    fixed t12 values; the reference timescale t0 is the smallest waiting
    time of the condition.  T1 is fixed (default the reference 9 ms) unless
    fixed["free_t1"] is True (it must be a bool; absent means False); the
    sublevel lifetime comes from fixed["tz_s"] or a per-condition
    fixed["tz_table"] (a list of mappings with temperature_k, field_t and
    tz_s), defaulting to ``ASSUMED_TZ_S`` with a "tz-assumed" flag.  The
    T1 and T_Z values go to the engine as given, so one number rule
    checks them, and a bad one fails only its own condition.  All
    conditions' restarts are fitted in lockstep, each with its own fixed
    values, and each condition equals ``multi_start_fit`` with init None
    on it alone; ``tz-assumed`` follows the fit's own flags.

    Returns ``(tables, fits)`` with one table per fitted quantity
    (gamma0, gamma_tls, gamma_sd, r_sd, beta), one row per condition.
    """
    traces, axis, condition_of = _batch_traces("batch_fit_3ppe", "echo3", traces)
    cfg = cfg or FitConfig(restarts=4)
    fixed = {"t1_ms": THREE_LEVEL_7MK_009T_FIXED["t1_ms"], **(fixed or {})}
    table = fixed.get("tz_table", [])
    if (not isinstance(table, (list, tuple))
            or not all(isinstance(row, Mapping) for row in table)):
        raise ValueError("tz_table must be a list of mappings with temperature_k, "
                         "field_t and tz_s")
    free_t1 = fixed.get("free_t1", False)
    if not isinstance(free_t1, bool):
        raise ValueError(f"free_t1 must be true or false, got {free_t1!r}")
    model_id = "echo3-free-t1" if free_t1 else "echo3"

    groups = {}
    for tr in traces:
        groups.setdefault((tr.temperature_k, tr.field_t), []).append(tr)

    rows = []
    for (temp_k, field_t) in sorted(groups):
        members = groups[(temp_k, field_t)]
        condition = condition_of(members[0])
        try:
            x = np.concatenate([
                np.column_stack([np.full(tr.n_points, tr.t12_us), tr.time_us])
                for tr in members])
            y = np.concatenate([tr.intensity for tr in members])
            t0_us = float(x[:, 1].min())
            tz_s, assumed = _resolve_tz(model_id, fixed, temp_k, field_t)
            fit_fixed = {"tz_s": tz_s, "t0_us": t0_us}
            if not free_t1:
                fit_fixed["t1_ms"] = fixed["t1_ms"]
        except ValueError as exc:
            rows.append((condition, exc))
            continue
        rows.append((condition, (x, y, fit_fixed, ("tz-assumed",) if assumed else ())))
    readout = {"gamma0": _param("gamma0_khz"), "gamma_tls": _param("gamma_tls_khz"),
               "gamma_sd": _param("gamma_sd_khz"), "r_sd": _param("r_sd_khz"),
               "beta": _param("beta")}
    return _fit_scan(model_id, axis, rows, readout, cfg)


def fit_table(model_id, table, cfg, fixed=None):
    """``multi_start_fit`` of the law ``model_id``, started from its guess,
    on the rows of a ScanTable whose value is finite, weighted by their
    stderr when every such entry is > 0 (else linewidth fits use relative
    residuals).  The other rows, such as a batch's ``failed:`` rows, are
    left out.  After the fit's own flags (``guess-degenerate`` among
    them, as on a batch row) comes ``rows-dropped:<k>`` when rows were
    left out.  A table over another condition axis than the law's is refused."""
    axis = scan_table(model_id)[0]
    if table.condition_axis != axis:
        raise ValueError(f"model {model_id!r} fits a table over {axis}, "
                         f"got one over {table.condition_axis}")
    keep = np.isfinite(table.value)
    x, y, stderr = table.condition[keep], table.value[keep], table.stderr[keep]
    sigma = stderr if np.all(stderr > 0) else None
    res = multi_start_fit(model_id, x, y, None, sigma=sigma, cfg=cfg, fixed=fixed)
    dropped = keep.size - np.count_nonzero(keep)
    return replace(res, flags=res.flags + (f"rows-dropped:{dropped}",)) if dropped else res


def emit_report(tables, fits, destination, extra_lines=()):
    """Write one table file per quantity of ``tables``, a mapping of
    quantity id to ScanTable, plus a human-readable summary.

    Output is deterministic: stable table order, fixed float formatting,
    no timestamps.  Raises before writing anything if there are no tables.
    Returns the list of written paths.
    """
    if not tables:
        raise ValueError("emit_report needs at least one table")
    items = sorted(tables.items())
    os.makedirs(destination, exist_ok=True)

    paths = []
    for qid, table in items:
        path = os.path.join(destination, f"{qid}_vs_{table.condition_axis}.txt")
        write_table(table, path, fmt=REPORT_FMT)
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
            f"iterations={res.n_iterations} sse={REPORT_FMT % res.sse} dof={res.dof} "
            f"restarts_agreeing={res.n_restarts_agreeing}")
        for name in res.param_names:
            err = res.stderr[name]
            err_s = REPORT_FMT % err if np.isfinite(err) else "unbounded"
            lines.append(f"    {name} = {REPORT_FMT % res.params[name]} +- {err_s}")
        if res.fixed:
            fixed_s = " ".join(f"{k2}={REPORT_FMT % v}" for k2, v in sorted(res.fixed.items()))
            lines.append(f"    fixed: {fixed_s}")
        if res.flags:
            lines.append(f"    flags: {';'.join(res.flags)}")

    # Field-model fits get their minimum reported alongside.
    gamma_tables = [t for _, t in items
                    if (t.condition_axis, t.quantity_id) == scan_table("field")]
    for res in fits:
        if res is not None and res.model_id == "field":
            b_max = float(gamma_tables[0].condition.max()) if gamma_tables else 2.0
            b_star, gamma_star, boundary = models.field_linewidth_minimum(
                res.params, b_max, res.fixed)
            where = f" (at {boundary} boundary)" if boundary else ""
            lines.append(f"field minimum: B* = {REPORT_FMT % b_star} T, "
                         f"gamma* = {REPORT_FMT % gamma_star} kHz{where}")

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
    # One call per law over the grid, equal to scalar calls bit for bit.
    b = np.array(DEMO_FIELD_GRID_T)
    tms = models.tm_from_gamma_eff(
        models.field_linewidth(FIELD_7MK, b, {"temp_k": DEMO_TEMP_K})).tolist()
    i0s = demo_i0_of_field(b).tolist()
    traces = []
    for k, (b, tm, i0) in enumerate(zip(DEMO_FIELD_GRID_T, tms, i0s)):
        spec = SynthSpec(
            model_id="mims",
            true_params={"i0": i0, "tm_us": tm, "x": DEMO_MIMS_X},
            grid=(0.25, 3.0 * tm, 50, "log"),
            noise=("multiplicative", 0.02),
            seed=seed * 1000 + k,
            temperature_k=DEMO_TEMP_K,
            field_t=b,
        )
        traces.append(synth_trace(spec))
    return traces


def _demo_3ppe_traces(seed):
    truth = dict(_DEMO_3PPE["params"])
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
            fixed={**_DEMO_3PPE["fixed"], "t12_us": t12},
        )
        traces.append(synth_trace(spec))
    return traces, truth


def _demo_3ppe_half(seed):
    """The demo's 3PPE half: ``(truth, tables, fits)`` of its joint fit."""
    traces3, truth3 = _demo_3ppe_traces(seed)
    tables3, fits3 = batch_fit_3ppe(
        traces3, cfg=FitConfig(restarts=4, seed=seed + 13),
        fixed={k: _DEMO_3PPE["fixed"][k] for k in ("t1_ms", "tz_s")})
    return truth3, tables3, fits3


_DEMO_WORKER = None  # (pid that forked it, its pid, this end of its pipe)
_DEMO_LOCK = threading.Lock()  # held by the one demo whose half the worker runs


def _fork_demo_worker():
    """Fork the demo's 3PPE worker, which sends back ``(True, result)`` or
    ``(False, error)`` for each seed it receives, until its pipe closes."""
    from multiprocessing.connection import Pipe  # here: the import costs about 1 MB
    ours, theirs = Pipe()
    with theirs:
        try:
            pid = os.fork()
        except OSError:
            ours.close()
            raise
        if pid == 0:  # the worker: whatever it raises, it never returns from here
            try:
                ours.close()
                while True:
                    seed = theirs.recv()
                    try:
                        reply = True, _demo_3ppe_half(seed)
                    except Exception as err:
                        reply = False, err
                    theirs.send(reply)
            finally:
                os._exit(0)
    return os.getpid(), pid, ours


@atexit.register
def _close_demo_worker():
    """Kill this process's demo worker, whatever it is doing, and reap it."""
    global _DEMO_WORKER
    if _DEMO_WORKER is not None:
        owner, pid, conn = _DEMO_WORKER
        _DEMO_WORKER = None
        conn.close()
        if owner == os.getpid():  # not one inherited from the process that forked this one
            with suppress(ProcessLookupError, ChildProcessError):  # reaped already
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


@contextmanager
def _start_demo_3ppe(seed):
    """Start the demo's 3PPE half beside the with block, which it gives the
    function that waits for the half's ``(truth, tables, fits)``.  The warm
    forked worker serves one demo at a time, and is killed if the block
    ends with its reply unread, so that no later demo reads it as its own."""
    global _DEMO_WORKER
    half = lambda: _demo_3ppe_half(seed)
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1
            and _DEMO_LOCK.acquire(blocking=False)):  # not held by another thread's demo
        yield half
        return
    pending = False

    def collect():
        nonlocal pending
        try:
            ok, value = conn.recv()
        except (EOFError, ConnectionError):  # it died, with or without our seed read
            raise RuntimeError("the demo's 3PPE worker died") from None
        pending = False
        if not ok:
            raise value
        return value

    try:
        try:
            if (_DEMO_WORKER is None or _DEMO_WORKER[0] != os.getpid()
                    or _DEMO_WORKER[2].poll()):  # an idle worker's pipe reads only its EOF
                _close_demo_worker()
                _DEMO_WORKER = _fork_demo_worker()
            conn = _DEMO_WORKER[2]
            conn.send(seed)
            pending = True
        except OSError:  # the fork failed, or the worker died since the poll
            _close_demo_worker()
            collect = half
        yield collect
    finally:
        if pending:
            _close_demo_worker()
        _DEMO_LOCK.release()


def run_demo(destination, seed=1):
    """Synthesize the reference-parameter datasets, run both batch fits and
    emit the full report.

    ``seed`` (an int >= 0) is checked before any work starts.  The 3PPE
    half runs in a worker process, reached over one pipe, while this
    process runs the 2PPE half; every result and report byte is as
    in-process.  The worker is forked at the first demo and reused by later
    ones; a dead one fails its pending half and the next demo forks afresh,
    and at interpreter exit it is killed and reaped.  The half runs
    in-process without ``fork``, on one usable CPU, when the fork fails and
    for a demo of one thread while another thread's demo holds the worker.
    Code patched after the first demo does not reach the worker.

    Returns ``(paths, checks)``; checks is a list of (name, passed,
    detail) for the embedded consistency checks.
    """
    cfg2 = FitConfig(restarts=4, seed=seed)  # refuses a seed that is not an int
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    checks = []
    with _start_demo_3ppe(seed) as collect_3ppe:
        # Field scan: per-field decay fits, then the linewidth model on top.
        tables2, fits2 = batch_fit_2ppe(_demo_2ppe_traces(seed), cfg=cfg2,
                                        window=DEFAULT_2PPE_WINDOW)

        gamma_tab = tables2["gamma_eff"]
        fit_field = fit_table("field", gamma_tab, FitConfig(restarts=8, seed=seed + 1),
                              {"temp_k": DEMO_TEMP_K})

        zero_field = models.field_linewidth(FIELD_7MK, 0.0, {"temp_k": DEMO_TEMP_K})
        checks.append(("zero-field-linewidth",
                       abs(zero_field - 40.02) < 1e-9,
                       f"reference evaluation at B=0 gives {REPORT_FMT % zero_field} kHz"))

        nearest = int(np.argmin(np.abs(gamma_tab.condition - 0.14)))
        argmin_fit = int(np.nanargmin(gamma_tab.value))
        checks.append(("scan-minimum-position",
                       argmin_fit == nearest,
                       "fitted linewidth minimum at B = "
                       f"{REPORT_FMT % gamma_tab.condition[argmin_fit]} T"))

        # Waiting-time scans at one condition, fitted jointly across t12.
        truth3, tables3, fits3 = collect_3ppe()

    recovery_lines = ["recovery at 7 mK / 0.09 T (3 t12 traces, 3% noise):"]
    res3 = fits3[0]
    recovered_ok = res3 is not None
    if res3 is not None:
        for name, sig in SD_7MK_009T_SIGMA.items():
            delta = abs(res3.params[name] - truth3[name])
            ok = delta <= 3.0 * sig
            recovered_ok &= ok
            recovery_lines.append(
                f"    {name}: truth {REPORT_FMT % truth3[name]}, fitted "
                f"{REPORT_FMT % res3.params[name]} +- {REPORT_FMT % res3.stderr[name]}, "
                f"|delta| = {REPORT_FMT % delta} ({'within' if ok else 'OUTSIDE'} "
                f"3x band {REPORT_FMT % (3 * sig)})")
    checks.append(("3ppe-recovery", recovered_ok,
                   "all shared parameters within 3x reference bands"))

    b_star, gamma_star, _ = models.field_linewidth_minimum(fit_field.params, 2.0,
                                                           fit_field.fixed)

    head = [
        f"demo seed: {seed}",
        f"field grid: {len(DEMO_FIELD_GRID_T)} points in [0, 2] T at {DEMO_TEMP_K} K",
        "2ppe noise: 2% multiplicative, window 0.25 us",
        f"t23 scans: t12 = {list(T12_SET_US)} us, 250 points in [50, 7500] us, 3% noise",
        "",
        f"zero-field reference linewidth: {REPORT_FMT % zero_field} kHz",
        f"fitted field-model minimum: B* = {REPORT_FMT % b_star} T, "
        f"gamma* = {REPORT_FMT % gamma_star} kHz",
        "",
    ]
    head.extend(recovery_lines)
    head.append("")
    for name, ok, detail in checks:
        head.append(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")

    tables = dict(tables2)
    tables.update(tables3)
    fits = list(fits2) + [fit_field] + list(fits3)
    paths = emit_report(tables, fits, destination, extra_lines=head)
    return paths, checks
