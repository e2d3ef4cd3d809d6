"""Command-line front end.

Subcommands: eval, synth, fit-2ppe, fit-3ppe, scan-field, scan-temp,
check-grad, demo.  Every run prints its resolved configuration first.
Exit codes: 0 success, 1 runtime failure, 2 usage error.  Numeric output
uses 6 significant digits.  The ECHOFIT_OUTDIR environment variable sets
the default output directory.
"""

import argparse
import os
import sys
from contextlib import contextmanager

import numpy as np
import yaml

from . import models
from .catalog import CATALOG, evaluate, gradient_check
from .fitting import FitConfig
from .pipeline import (
    DEFAULT_2PPE_WINDOW,
    REPORT_FMT,
    batch_fit_2ppe,
    batch_fit_3ppe,
    emit_report,
    fit_table,
    run_demo,
)
from .presets import TEMP_009T, THREE_LEVEL_7MK_009T_FIXED, get_preset
from .synth import Modulation, SynthSpec, synth_scan, synth_trace
from .trace import load_table, load_trace, write_table, write_trace
from .values import _known

GRAD_TOL = 1e-5

# The keys a fit-3ppe --config file may set: fixed values, then fit settings.
_FIXED_KEYS = ("t1_ms", "tz_s", "tz_table", "free_t1")
_FIT_KEYS = ("restarts", "seed", "max_iterations")

# The flag that sets each fixed quantity of the catalog, where a
# subcommand has it.
_FIXED_FLAGS = {"temp_k": "T", "t1_ms": "t1_ms", "tz_s": "tz_s", "t0_us": "t0_us"}

# What eval prints for each model: the flags of its x values with their
# defaults (None: the flag must be given), and the quantity's name.
_EVAL = {
    "mims": ({"t12_us": None}, "intensity"),
    "field": ({"B": None}, "gamma_eff_khz"),
    "temp": ({"T": None}, "gamma_eff_khz"),
    "sd": ({"t12_us": 0.0, "t23_us": None}, "gamma_eff_khz"),
    "echo3": ({"t12_us": None, "t23_us": None}, "intensity"),
    "sech2": ({"B": None}, "gamma_sd_khz"),
}


def _fmt(v):
    return REPORT_FMT % v


def _print_config(args):
    for key in sorted(vars(args)):
        if key != "func":
            print(f"# config {key} = {getattr(args, key)}")


@contextmanager
def _flag(flag, form, text):
    """Turn a ValueError raised while parsing the text ``text`` of the flag
    ``flag`` into one that names the flag, the ``form`` it takes and the
    text."""
    try:
        yield
    except ValueError:
        raise ValueError(f"{flag} needs {form}, got {text!r}") from None


def _parse_kv(text):
    out = {}
    if not text:
        return out
    for chunk in text.replace(",", " ").split():
        with _flag("--params", "KEY=NUMBER pairs", chunk):
            k, v = chunk.split("=")
            out[k] = float(v)
    return out


def _parse_noise(text):
    if text in (None, "none"):
        return ("none", 0.0)
    kind, _, level = text.partition(":")
    table = {"mult": "multiplicative", "multiplicative": "multiplicative",
             "add": "additive", "additive": "additive"}
    with _flag("--noise", "'none', 'mult:SIGMA' or 'add:SIGMA'", text):
        if kind not in table:
            raise ValueError
        return (table[kind], float(level))


def _parse_window(text):
    """--window LO:HI, each edge empty (open) or a number; the default
    2ppe window when the flag is not given."""
    if text is None:
        return DEFAULT_2PPE_WINDOW
    lo, _, hi = text.partition(":")
    with _flag("--window", "LO:HI in microseconds, each edge empty or a number", text):
        return (float(lo) if lo else None, float(hi) if hi else None)


def _parse_grid(text):
    with _flag("--grid", "LO:HI:COUNT:SPACING with an integer COUNT", text):
        lo, hi, count, spacing = text.split(":")
        return (float(lo), float(hi), int(count), spacing)


def _parse_modulation(text):
    with _flag("--modulation", "DEPTH:FREQ_MHZ:DECAY_US, three numbers", text):
        depth, freq, decay = (float(v) for v in text.split(":"))
    return Modulation(depth, freq, decay)


def _default_outdir():
    return os.environ.get("ECHOFIT_OUTDIR", "echofit-out")


def _preset_params(args, model_id):
    """The parameters and fixed values of ``model_id``, two dicts: the
    preset's, if any (a preset serves every model whose parameters it
    holds, so the echo3 preset serves sd), then --params over the
    parameters and the flags this subcommand has for fixed values over
    those.  A --params name that is not one of the model's parameters is
    refused, naming the flags that set its fixed values."""
    spec = CATALOG[model_id]
    params, fixed = {}, {}
    preset = getattr(args, "preset", None)
    if preset:
        pre = get_preset(preset)
        if not set(spec.param_names) <= set(pre["params"]):
            raise ValueError(f"preset {preset!r} does not define model {model_id!r}")
        params = {name: pre["params"][name] for name in spec.param_names}
        fixed = dict(pre["fixed"])
    given = _parse_kv(args.params)
    flags = {name: _FIXED_FLAGS[name] for name in spec.fixed_names
             if hasattr(args, _FIXED_FLAGS[name])}
    _known(model_id, spec.param_names, given,
           "".join(f"; --{flag.replace('_', '-')} sets {name}"
                   for name, flag in flags.items()))
    params.update(given)
    for name, flag in flags.items():
        if getattr(args, flag) is not None:
            fixed[name] = getattr(args, flag)
    return params, fixed


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _x(args, name, default):
    """The value of the flag ``name``, or ``default``; a ValueError names
    the flag when neither is given."""
    value = getattr(args, name)
    if value is None:
        value = default
    if value is None:
        raise ValueError(f"eval {args.model} needs --{name.replace('_', '-')}")
    return value


def cmd_eval(args):
    xs, quantity = _EVAL[args.model]
    params, fixed = _preset_params(args, args.model)
    x = [_x(args, name, default) for name, default in xs.items()]
    print(f"{quantity} = {_fmt(evaluate(args.model, params, x, fixed))}")
    return 0


def cmd_synth(args):
    params, fixed = _preset_params(args, args.model)
    if args.t12_us is not None:
        fixed["t12_us"] = args.t12_us
    modulation = _parse_modulation(args.modulation) if args.modulation else None
    spec = SynthSpec(
        model_id=args.model,
        true_params=params,
        grid=_parse_grid(args.grid),
        noise=_parse_noise(args.noise),
        seed=args.seed,
        modulation=modulation,
        temperature_k=args.temperature_K,
        field_t=args.field_T,
        fixed=fixed,
    )
    trace = synth_trace(spec)
    write_trace(trace, args.out, unit_time=args.unit_time)
    print(f"wrote {trace.n_points} points to {args.out}")
    return 0


def _print_fit(res):
    print(f"model {res.model_id}: converged={res.converged} "
          f"iterations={res.n_iterations} sse={_fmt(res.sse)} dof={res.dof}")
    for name in res.param_names:
        err = res.stderr[name]
        err_s = _fmt(err) if np.isfinite(err) else "unbounded"
        print(f"  {name} = {_fmt(res.params[name])} +- {err_s}")
    if res.flags:
        print(f"  flags: {';'.join(res.flags)}")


def _report_fits(tables, fits, out):
    """Print every fit of a batch and, when ``out`` is set, write its
    report there; the exit code is 1 when a row failed."""
    for res in fits:
        if res is None:
            print("fit FAILED")
        else:
            _print_fit(res)
    if out:
        paths = emit_report(tables, fits, out)
        print(f"wrote {len(paths)} files to {out}")
    return 1 if any(res is None for res in fits) else 0


def cmd_fit_2ppe(args):
    traces = [load_trace(p) for p in args.traces]
    cfg = FitConfig(restarts=args.restarts, seed=args.seed)
    tables, fits = batch_fit_2ppe(traces, cfg=cfg, window=_parse_window(args.window),
                                  normalize=args.normalize)
    return _report_fits(tables, fits, args.out)


def cmd_fit_3ppe(args):
    traces = [load_trace(p) for p in args.traces]
    fixed = {"t1_ms": args.t1_ms, "free_t1": args.free_t1}
    if args.tz_s is not None:
        fixed["tz_s"] = args.tz_s
    cfg_kwargs = {"restarts": args.restarts, "seed": args.seed}
    if args.config:
        with open(args.config) as fh:
            conf = yaml.safe_load(fh)
        conf = {} if conf is None else conf
        if not isinstance(conf, dict):
            raise ValueError("--config needs a mapping of keys to values, "
                             f"got a {type(conf).__name__}")
        unknown = [key for key in conf if key not in _FIXED_KEYS + _FIT_KEYS]
        if unknown:
            raise ValueError(f"unknown --config keys {unknown}; "
                             f"known: {', '.join(_FIXED_KEYS + _FIT_KEYS)}")
        fixed.update((key, conf[key]) for key in _FIXED_KEYS if key in conf)
        cfg_kwargs.update((key, conf[key]) for key in _FIT_KEYS if key in conf)
        # the config file overrides flag values, so re-print what is
        # actually in effect
        for key in sorted(conf):
            print(f"# config {key} = {conf[key]} (from {args.config})")
    cfg = FitConfig(**cfg_kwargs)
    tables, fits = batch_fit_3ppe(traces, cfg=cfg, fixed=fixed)
    return _report_fits(tables, fits, args.out)


def cmd_scan_field(args):
    if args.table:
        cfg = FitConfig(restarts=args.restarts, seed=args.seed)
        res = fit_table("field", load_table(args.table), cfg, {"temp_k": args.T})
        _print_fit(res)
        params, fixed = res.params, res.fixed
    else:
        params, fixed = _preset_params(args, "field")
        scan = synth_scan("field", params, (0.0, args.b_max, args.points, "linear"),
                          fixed=fixed)
        if args.out:
            write_table(scan, args.out, fmt=REPORT_FMT)
            print(f"wrote scan table to {args.out}")
    b_star, gamma_star, boundary = models.field_linewidth_minimum(params, args.b_max, fixed)
    where = f" at {boundary} boundary" if boundary else ""
    print(f"minimum: B* = {_fmt(b_star)} T, gamma* = {_fmt(gamma_star)} kHz{where}")
    print(f"zero-field: gamma(0) = {_fmt(models.field_linewidth(params, 0.0, fixed))} kHz")
    return 0


def cmd_scan_temp(args):
    if args.table:
        cfg = FitConfig(restarts=args.restarts, seed=args.seed)
        _print_fit(fit_table("temp", load_table(args.table), cfg))
        return 0
    params = _preset_params(args, "temp")[0] if args.params else TEMP_009T
    scan = synth_scan("temp", params, (args.t_min, args.t_max, args.points, "log"))
    for c, v in zip(scan.condition, scan.value):
        print(f"{_fmt(c)} {_fmt(v)}")
    if args.out:
        write_table(scan, args.out, fmt=REPORT_FMT)
        print(f"wrote scan table to {args.out}")
    return 0


def cmd_check_grad(args):
    ids = sorted(CATALOG) if args.all or not args.model else [args.model]
    worst = 0.0
    for mid in ids:
        err = gradient_check(mid, n_draws=args.draws, seed=args.seed)
        status = "ok" if err < GRAD_TOL else "FAIL"
        print(f"{mid}: max relative error {err:.3e} [{status}]")
        worst = max(worst, err)
    print(f"worst: {worst:.3e} (tolerance {GRAD_TOL:g})")
    return 0 if worst < GRAD_TOL else 1


def cmd_demo(args):
    paths, checks = run_demo(args.out, seed=args.seed)
    for p in paths:
        print(f"wrote {p}")
    for name, ok, detail in checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return 0 if all(ok for _, ok, _ in checks) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="echofit",
        description="Evaluate, synthesize and fit photon-echo decay and "
                    "linewidth models.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one model at a point")
    p.add_argument("model", choices=list(_EVAL))
    p.add_argument("--preset", default=None)
    p.add_argument("--params", default=None, help="comma-separated key=value")
    p.add_argument("--B", type=float, default=0.0, help="field in tesla")
    p.add_argument("--T", type=float, default=0.007, help="temperature in kelvin")
    p.add_argument("--t12-us", type=float, default=None)
    p.add_argument("--t23-us", type=float, default=None)
    p.add_argument("--t1-ms", type=float, default=None)
    p.add_argument("--tz-s", type=float, default=None)
    p.add_argument("--t0-us", type=float, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="write a synthetic trace file")
    p.add_argument("--model", choices=["mims", "echo3"], default="mims")
    p.add_argument("--preset", default=None)
    p.add_argument("--params", default=None)
    p.add_argument("--grid", required=True, help="LO:HI:COUNT:linear|log (microseconds)")
    p.add_argument("--noise", default="none", help="none | mult:SIGMA | add:SIGMA")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--modulation", default=None, help="DEPTH:FREQ_MHZ:DECAY_US")
    p.add_argument("--temperature-K", type=float, default=0.007)
    p.add_argument("--field-T", type=float, default=0.0)
    p.add_argument("--t12-us", type=float, default=None,
                   help="fixed pulse separation for waiting-time traces")
    p.add_argument("--unit-time", default="us", choices=["ns", "us", "ms", "s"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit-2ppe", help="fit decay traces and tabulate vs condition")
    p.add_argument("traces", nargs="+")
    p.add_argument("--window", default=None, help="LO:HI in microseconds, e.g. 0.25:")
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalize", action="store_true",
                   help="normalize each trace to its in-window maximum")
    p.add_argument("--out", default=os.environ.get("ECHOFIT_OUTDIR"))
    p.set_defaults(func=cmd_fit_2ppe)

    p = sub.add_parser("fit-3ppe", help="jointly fit waiting-time traces per condition")
    p.add_argument("traces", nargs="+")
    p.add_argument("--t1-ms", type=float, default=THREE_LEVEL_7MK_009T_FIXED["t1_ms"])
    p.add_argument("--tz-s", type=float, default=None)
    p.add_argument("--free-t1", action="store_true")
    p.add_argument("--config", default=None,
                   help="YAML mapping of " + "/".join(_FIXED_KEYS + _FIT_KEYS))
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=os.environ.get("ECHOFIT_OUTDIR"))
    p.set_defaults(func=cmd_fit_3ppe)

    p = sub.add_parser("scan-field", help="evaluate or fit the field model and find its minimum")
    p.add_argument("--preset", default="field-7mK")
    p.add_argument("--params", default=None)
    p.add_argument("--table", default=None, help="fit this linewidth table instead of evaluating")
    p.add_argument("--T", type=float, default=0.007)
    p.add_argument("--b-max", type=float, default=2.0)
    p.add_argument("--points", type=int, default=41)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scan_field)

    p = sub.add_parser("scan-temp", help="evaluate or fit the temperature model")
    p.add_argument("--params", default=None)
    p.add_argument("--table", default=None)
    p.add_argument("--t-min", type=float, default=0.007)
    p.add_argument("--t-max", type=float, default=0.55)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scan_temp)

    p = sub.add_parser("check-grad", help="verify analytic Jacobians against finite differences")
    p.add_argument("--all", action="store_true")
    p.add_argument("--model", default=None, choices=sorted(CATALOG))
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check_grad)

    p = sub.add_parser("demo", help="synthesize reference datasets, run both batch fits, emit report")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=_default_outdir())
    p.set_defaults(func=cmd_demo)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    _print_config(args)
    try:
        return args.func(args)
    except Exception as exc:  # argparse usage errors exit(2) before this
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
