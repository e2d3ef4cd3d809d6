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

import numpy as np
import yaml

from . import models
from .catalog import CATALOG, gradient_check
from .fitting import FitConfig
from .params import FieldModelParams, MimsParams, SpectralDiffusionParams, \
    TempModelParams, ThreeLevelParams
from .pipeline import (
    ASSUMED_TZ_S,
    DEFAULT_2PPE_WINDOW,
    REPORT_FMT,
    batch_fit_2ppe,
    batch_fit_3ppe,
    emit_report,
    fit_table,
    run_demo,
)
from .presets import TEMP_009T, THREE_LEVEL_7MK_009T, get_preset
from .synth import Modulation, SynthSpec, synth_scan, synth_trace
from .trace import load_table, load_trace, write_table, write_trace

GRAD_TOL = 1e-5


def _fmt(v):
    return REPORT_FMT % v


def _print_config(args):
    skip = {"func"}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        print(f"# config {key} = {getattr(args, key)}")


def _parse_kv(text):
    out = {}
    if not text:
        return out
    for chunk in text.replace(",", " ").split():
        if "=" not in chunk:
            raise ValueError(f"expected key=value, got {chunk!r}")
        k, _, v = chunk.partition("=")
        out[k.strip()] = float(v)
    return out


def _parse_noise(text):
    if text in (None, "none"):
        return ("none", 0.0)
    kind, _, level = text.partition(":")
    table = {"mult": "multiplicative", "multiplicative": "multiplicative",
             "add": "additive", "additive": "additive"}
    if kind not in table or not level:
        raise ValueError(f"noise must be 'none', 'mult:SIGMA' or 'add:SIGMA', got {text!r}")
    return (table[kind], float(level))


def _parse_window(text):
    if text is None:
        return None
    lo, _, hi = text.partition(":")
    return (float(lo) if lo else None, float(hi) if hi else None)


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError("grid must be LO:HI:COUNT:SPACING")
    return (float(parts[0]), float(parts[1]), int(parts[2]), parts[3])


def _default_outdir():
    return os.environ.get("ECHOFIT_OUTDIR", "echofit-out")


def _preset_params(args, model_id):
    """Merge preset values (if any) with explicit --params overrides."""
    params = {}
    fixed = {}
    if args.preset:
        pre = get_preset(args.preset)
        fixed.update(pre.get("fixed", {}))
        if pre["model_id"] == model_id:
            params.update(pre["params"])
        elif model_id == "sd" and pre["model_id"] == "echo3":
            for k in ("gamma0_khz", "gamma_sd_khz", "r_sd_khz", "gamma_tls_khz"):
                params[k] = pre["params"][k]
            params["t0_us"] = pre["fixed"]["t0_us"]
        else:
            raise ValueError(f"preset {args.preset!r} does not define model {model_id!r}")
    params.update(_parse_kv(getattr(args, "params", None)))
    return params, fixed


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _delay(args, name):
    """The delay flag ``name``; a ValueError names it when it is not given."""
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"eval {args.model} needs --{name.replace('_', '-')}")
    return value


def cmd_eval(args):
    model_id = args.model
    params, fixed = _preset_params(args, model_id)
    if model_id == "field":
        p = FieldModelParams(**params)
        v = models.field_linewidth(p, args.B, args.T)
        print(f"gamma_eff_khz = {_fmt(v)}")
    elif model_id == "temp":
        p = TempModelParams(**params)
        print(f"gamma_eff_khz = {_fmt(models.temp_linewidth(p, args.T))}")
    elif model_id == "mims":
        p = MimsParams(**params)
        print(f"intensity = {_fmt(models.mims_intensity(p, _delay(args, 't12_us')))}")
    elif model_id == "sd":
        p = SpectralDiffusionParams(**params)
        v = models.sd_linewidth(p, args.t12_us or 0.0, _delay(args, "t23_us"))
        print(f"gamma_eff_khz = {_fmt(v)}")
    elif model_id == "sech2":
        v = models.sech2_sd_amplitude(params["gamma_max_khz"], params["g"],
                                      args.B, args.T)
        print(f"gamma_sd_khz = {_fmt(v)}")
    elif model_id == "echo3":
        t12, t23 = _delay(args, "t12_us"), _delay(args, "t23_us")
        t1 = (args.t1_ms if args.t1_ms is not None
              else fixed.get("t1_ms", THREE_LEVEL_7MK_009T.t1_ms))
        tz = args.tz_s if args.tz_s is not None else fixed.get("tz_s", ASSUMED_TZ_S)
        t0 = args.t0_us if args.t0_us is not None else fixed.get("t0_us", 50.0)
        tl = ThreeLevelParams(i0=params.get("i0", 1.0), t1_ms=t1, tz_s=tz,
                              beta=params["beta"])
        sd = SpectralDiffusionParams(
            gamma0_khz=params["gamma0_khz"], gamma_sd_khz=params["gamma_sd_khz"],
            r_sd_khz=params["r_sd_khz"], gamma_tls_khz=params["gamma_tls_khz"],
            t0_us=t0)
        v = models.stimulated_echo_intensity(tl, sd, t12, t23)
        print(f"intensity = {_fmt(v)}")
    else:
        raise ValueError(f"eval does not support model {model_id!r}")
    return 0


def cmd_synth(args):
    params, fixed = _preset_params(args, args.model)
    if args.t12_us is not None:
        fixed["t12_us"] = args.t12_us
    modulation = None
    if args.modulation:
        depth, freq, decay = (float(v) for v in args.modulation.split(":"))
        modulation = Modulation(depth, freq, decay)
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
    cfg = FitConfig(window=_parse_window(args.window) or DEFAULT_2PPE_WINDOW,
                    restarts=args.restarts, seed=args.seed)
    tables, fits = batch_fit_2ppe(traces, cfg=cfg, normalize=args.normalize)
    return _report_fits(tables, fits, args.out)


def cmd_fit_3ppe(args):
    traces = [load_trace(p) for p in args.traces]
    fixed = {"t1_ms": args.t1_ms, "free_t1": args.free_t1}
    if args.tz_s is not None:
        fixed["tz_s"] = args.tz_s
    cfg_kwargs = {"restarts": args.restarts, "seed": args.seed}
    if args.config:
        with open(args.config) as fh:
            conf = yaml.safe_load(fh) or {}
        for key in ("t1_ms", "tz_s", "tz_table", "free_t1"):
            if key in conf:
                fixed[key] = conf[key]
        for key in ("restarts", "seed", "max_iterations"):
            if key in conf:
                cfg_kwargs[key] = conf[key]
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
        p = FieldModelParams(**res.params)
    else:
        params, _ = _preset_params(args, "field")
        p = FieldModelParams(**params)
        scan = synth_scan("field", params, (0.0, args.b_max, args.points, "linear"),
                          fixed={"temp_k": args.T})
        if args.out:
            write_table(scan, args.out, fmt=REPORT_FMT)
            print(f"wrote scan table to {args.out}")
    b_star, gamma_star, boundary = models.field_linewidth_minimum(
        p, args.T, args.b_max)
    where = f" at {boundary} boundary" if boundary else ""
    print(f"minimum: B* = {_fmt(b_star)} T, gamma* = {_fmt(gamma_star)} kHz{where}")
    print(f"zero-field: gamma(0) = {_fmt(models.field_linewidth(p, 0.0, args.T))} kHz")
    return 0


def cmd_scan_temp(args):
    if args.table:
        cfg = FitConfig(restarts=args.restarts, seed=args.seed)
        _print_fit(fit_table("temp", load_table(args.table), cfg))
        return 0
    params = _parse_kv(args.params) if args.params else TEMP_009T.to_dict()
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
    failed = 0
    for name, ok, detail in checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failed += 0 if ok else 1
    return 1 if failed else 0


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
    p.add_argument("model", choices=["mims", "field", "temp", "sd", "echo3", "sech2"])
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
    p.add_argument("--t1-ms", type=float, default=THREE_LEVEL_7MK_009T.t1_ms)
    p.add_argument("--tz-s", type=float, default=None)
    p.add_argument("--free-t1", action="store_true")
    p.add_argument("--config", default=None, help="YAML with t1_ms/tz_s/tz_table/restarts/seed")
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
