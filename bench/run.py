#!/usr/bin/env python3
"""echofit benchmark: two fit workloads, end-to-end metrics, and an
outside-in per-layer trace.

Run from the repository root:

    python3 bench/run.py                      # every workload, untraced
    python3 bench/run.py --workload demo --seed 3 --seconds 20 --trace 1

Workloads, metric names, units and the default run length come from
``BENCHMARK.json`` at the repository root; ``bench/layers.json`` says which
end-to-end metric each per-layer metric should move.  One process, one
thread of work: BLAS is pinned to one thread before NumPy loads, and
echofit is imported from ``src/`` of this checkout, never from an
installed copy.

A run makes the seed's input pool and cycles through it in whole passes
for ``--seconds``, checking every output.  ``--trace 0`` reports the
end-to-end metrics.  Before every pass it sets up again (inputs plus one
warm-up operation) and reports the median set-up time as ``setup_s``.
Throughput and latency come from the slower half of the passes (see
``Side.slow_half``): ``ops_per_s`` is the pool size over their median
pass time, ``op_p50_ms`` and ``op_p90_ms`` are percentiles of their op
times.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics, with ``tracing_overhead_frac`` from the two sides.
recovery-mc on any seed other than the reference seed then re-runs the
reference inputs against their recorded results.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
Spans and a full result record are written under ``bench/out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_THREADS = "1"
MIN_PASSES = 3          # untraced run; each side of a traced run gets 2
TAIL_PERCENTILE = 90


def load_echofit():
    """Pin BLAS to one thread, then import echofit from this checkout's
    ``src/`` together with the benchmark modules that use it."""
    if not (ROOT / "src" / "echofit" / "__init__.py").is_file():
        raise SystemExit(f"error: {ROOT / 'src' / 'echofit'} is missing; "
                         "run the benchmark from a full checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import echofit
    if Path(echofit.__file__).resolve().parent != ROOT / "src" / "echofit":
        raise SystemExit(f"error: imported echofit from {echofit.__file__}")
    import tracer
    import workloads
    return tracer, workloads


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed, reference_seed):
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "echofit").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "reference_seed": reference_seed,
    }


class Side:
    """Whole passes over the input pool, with per-op times and checks."""

    def __init__(self, wl, inputs, expected, call):
        self.wl, self.inputs, self.expected, self.call = wl, inputs, expected, call
        self.op_s = []
        self.pass_s = []
        self.failures = []

    def run_pass(self):
        busy = 0.0
        for inp, exp in zip(self.inputs, self.expected):
            t0 = time.perf_counter()
            try:
                out = self.call(inp)
            except Exception as exc:   # one failing op must not stop the run
                dt = time.perf_counter() - t0
                if not self.failures:
                    traceback.print_exc(file=sys.stderr)
                reason = f"raised {exc!r}"
            else:
                dt = time.perf_counter() - t0
                reason = self.wl.check(inp, out, exp)
            if reason is not None:
                self.failures.append(reason)
            self.op_s.append(dt)
            busy += dt
        self.pass_s.append(busy)

    def slow_half(self):
        """Op times (s) and pass times (s) of the slower half of the passes.

        On a shared host the speed of one core swings by up to 2x for
        seconds at a time, and runs differ in how many fast bursts they
        catch; statistics of the slower half of the passes vary less from
        run to run than those of all passes."""
        n = len(self.inputs)
        order = sorted(range(len(self.pass_s)), key=self.pass_s.__getitem__)
        slow = order[len(order) // 2:]
        return ([t for k in slow for t in self.op_s[k * n:(k + 1) * n]],
                [self.pass_s[k] for k in slow])

    def total_ops_per_s(self):
        return len(self.op_s) / sum(self.pass_s)


class SetUp:
    """One set-up: make the seed's inputs, then run one warm-up op on a
    fixed reference input, so that lazy set-up finishes and the cost does
    not depend on the seed.  Repeated once before every untraced pass, so
    that the median samples the same host conditions as the passes."""

    def __init__(self, wl, seed, warm_input, warm_expected):
        self.wl, self.seed = wl, seed
        self.warm_input, self.warm_expected = warm_input, warm_expected
        self.times = []
        self.failures = []

    def __call__(self):
        t0 = time.perf_counter()
        inputs = self.wl.make_inputs(self.seed)
        out = self.wl.run(self.warm_input)
        self.times.append(time.perf_counter() - t0)
        reason = self.wl.check(self.warm_input, out, self.warm_expected)
        if reason is not None:
            self.failures.append(f"warm-up: {reason}")
        return inputs


def check_reference(wl, reference, ref_seed):
    """Run the reference inputs once and compare with the recording."""
    inputs = wl.reference_inputs()
    side = Side(wl, inputs, wl.expected(reference, ref_seed, inputs), wl.run)
    side.run_pass()
    return side.failures


def run_workload(name, seed, seconds, traced, spec):
    tracer_mod, workloads = load_echofit()
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{name}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    wl = {"recovery-mc": workloads.RecoveryMC,
          "demo": lambda: workloads.Demo(work_dir)}[name]()
    ref_seed = workloads.REFERENCE_SEED
    warm_input = wl.reference_inputs()[0]
    warm_expected = wl.expected(reference[name], ref_seed, [warm_input])[0]
    env = environment(seed, ref_seed)
    set_up = SetUp(wl, seed, warm_input, warm_expected)
    try:
        inputs = set_up()
        expected = wl.expected(reference[name], seed, inputs)
        plain = Side(wl, inputs, expected, wl.run)
        sides = [plain]
        t_end = time.perf_counter() + seconds

        def more(side, min_passes):
            # Stop when the next pass would likely end past the deadline.
            last = side.pass_s[-1] if side.pass_s else 0.0
            return (time.perf_counter() + last < t_end
                    or len(side.pass_s) < min_passes)

        if traced:
            tr = tracer_mod.Tracer()
            traced_side = Side(wl, inputs, expected, lambda inp: tr.call(wl.run, inp))
            sides.append(traced_side)
            while more(traced_side, 2):
                plain.run_pass()
                tr.install()
                try:
                    traced_side.run_pass()
                finally:
                    tr.uninstall()
        else:
            while more(plain, MIN_PASSES):
                set_up()
                plain.run_pass()
        failures = list(set_up.failures)
        for side in sides:
            failures.extend(side.failures)
        attempted = sum(len(side.op_s) for side in sides)
        failed = sum(len(side.failures) for side in sides)
        if any(e is None for e in expected):
            ref_failures = check_reference(wl, reference[name], ref_seed)
            failures.extend(f"reference seed: {r}" for r in ref_failures)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    n = len(inputs)
    info = {"workload": name, "pool": n, "env": env}
    if traced:
        first, second = tr.pass_counts(0, n), tr.pass_counts(n, n)
        if first != second:
            diff = sorted(k for k in first.keys() | second.keys() if first[k] != second[k])
            failures.append(f"exact counts differ between two passes: {diff}")
        metrics = tracer_mod.time_metrics(tr, len(traced_side.op_s))
        metrics.update(tracer_mod.count_metrics(first, n))
        metrics["tracing_overhead_frac"] = (
            1.0 - traced_side.total_ops_per_s() / plain.total_ops_per_s())
        info["traced_ops"] = len(traced_side.op_s)
        info["spans"] = len(tr.start)
        tr.save(OUT_DIR / f"spans-{name}.npz")
        section = "per_layer"
    else:
        slow_op_s, slow_pass_s = plain.slow_half()
        ms = sorted(1e3 * s for s in slow_op_s)
        tail = statistics.quantiles(ms, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
        metrics = {
            "setup_s": statistics.median(set_up.times),
            "ops_per_s": n / statistics.median(slow_pass_s),
            "op_p50_ms": statistics.median(ms),
            "op_p90_ms": tail,
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info["pass_ops_per_s"] = [n / t for t in plain.pass_s]
        info["setup_repeats"] = len(set_up.times)
        info["op_samples"] = len(ms)
        info["op_samples_beyond_p90"] = sum(v > tail for v in ms)
        info["fail_frac"] = failed / attempted
        section = "end_to_end"

    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                         f"disagree with BENCHMARK.json {section}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    info.update(result, failures=failures[:20])
    (OUT_DIR / f"result-{name}-trace{int(traced)}.json").write_text(json.dumps(info, indent=1))

    print(f"# {name}: seed {seed}, pool {n} inputs, {attempted} ops, "
          f"{failed} failed, trace {int(traced)}")
    print(f"# env {json.dumps(env)}")
    for reason in failures[:5]:
        print(f"# FAIL {reason}")
    for k in units:
        print(f"{name:12s} {k:30s} {metrics[k]:14.6g} {units[k]}")
    if not traced:
        print(f"{name:12s} {'fail_frac':30s} {info['fail_frac']:14.6g} "
              f"({failed}/{attempted} ops)")
        print(f"# timings over the slower {len(slow_pass_s)} of {len(plain.pass_s)} passes; "
              f"op_p{TAIL_PERCENTILE}_ms: {info['op_samples']} samples, "
              f"{info['op_samples_beyond_p90']} beyond it")
    else:
        print(f"# {info['traced_ops']} traced ops, {info['spans']} spans; counts are per op "
              f"over the first traced pass of {n} ops and must repeat on the second")
    return result


def run_all(args, spec):
    """Each workload in its own process, so each reports its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {w['name']} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{w['name']}/{k}"] = v
    return combined


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"error: {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        result = run_all(args, spec)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
