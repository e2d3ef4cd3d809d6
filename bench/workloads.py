"""The benchmark's workloads: inputs made from a seed, one operation, and
the check of that operation's output.

A workload exposes:

- ``make_inputs(seed)``: the input pool, a list the runner cycles through;
- ``run(inp)``: one timed operation;
- ``check(inp, out, expected)``: None when the output is right, else a
  one-line reason.  The demo check also removes the report directory the
  operation wrote;
- ``reference_inputs()`` and ``recorded(out)``: what ``record_reference.py``
  runs and stores in ``reference.json``;
- ``expected(reference, seed, inputs)``: the recorded value for each input,
  or None where the seed has no recording.

Operations call echofit through module attributes at call time, so the
tracer's wrappers see every call.
"""

import hashlib
import shutil
from pathlib import Path

import numpy as np

from echofit import fitting, guesses, pipeline, synth, trace
from echofit.presets import FIELD_7MK

# The seed whose recovery-mc inputs have fitted parameters recorded in
# reference.json.
REFERENCE_SEED = 1
# Fitted parameters must match the recording to this relative tolerance.
RTOL = 1e-10
TEMP_K = 0.007


def _field_grid(n):
    # Same grid as scripts/recovery_vs_noise.py: a zero anchor plus
    # log spacing over [0.01, 2] T.
    return np.concatenate([[0.0], np.geomspace(0.01, 2.0, n - 1)])


class RecoveryMC:
    """One Monte-Carlo trial of the field-model recovery study: a guess
    and a 4-restart field fit on one synthetic scan."""

    name = "recovery-mc"
    GRID_SIZES = (14, 40, 120)
    NOISE = (0.03, 0.01, 0.003)
    TRIALS_PER_CELL = 8

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        truth = FIELD_7MK.to_dict()
        grids = {n: _field_grid(n) for n in self.GRID_SIZES}
        inputs = []
        # Cells are interleaved so that every stretch of the pool mixes
        # grid sizes and noise levels.
        for _ in range(self.TRIALS_PER_CELL):
            for n in self.GRID_SIZES:
                for sigma in self.NOISE:
                    scan = synth.synth_scan(
                        "field", truth, grids[n], noise=("multiplicative", sigma),
                        seed=int(rng.integers(2**31)), fixed={"temp_k": TEMP_K})
                    cfg = fitting.FitConfig(restarts=4, seed=len(inputs))
                    inputs.append((scan.condition, scan.value, cfg))
        return inputs

    def run(self, inp):
        x, y, cfg = inp
        guess = guesses.initial_guess("field", x, y, {"temp_k": TEMP_K})
        return fitting.multi_start_fit("field", x, y, guess.params, cfg=cfg,
                                       fixed={"temp_k": TEMP_K})

    def reference_inputs(self):
        return self.make_inputs(REFERENCE_SEED)

    def expected(self, reference, seed, inputs):
        if seed == REFERENCE_SEED:
            return list(reference)
        return [None] * len(inputs)

    def recorded(self, res):
        return res.param_vector().tolist()

    def check(self, inp, res, expected):
        if not res.converged:
            return f"fit did not converge (flags {';'.join(res.flags)})"
        p = res.param_vector()
        if not (np.all(np.isfinite(p)) and np.isfinite(res.sse)):
            return "fit is not finite"
        if expected is not None and not np.allclose(p, expected, rtol=RTOL, atol=0.0):
            return f"fitted parameters {p.tolist()} differ from recorded {expected}"
        return None


def report_digest(paths):
    """sha256 over the names and bytes of the report files."""
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(Path(p).name.encode() + b"\0")
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class Demo:
    """One ``run_demo`` into a fresh directory, then ``load_table`` on every
    table it wrote."""

    name = "demo"
    # Demo seeds whose report digests are recorded.  Every benchmark seed
    # runs all of them, in its own order: the LM work of one demo differs
    # between demo seeds, so a subset would make the work of a run depend
    # on the benchmark seed.
    SEEDS = tuple(range(1, 33))

    def __init__(self, work_dir):
        self.work_dir = Path(work_dir)
        self._ops = 0

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        return [int(s) for s in rng.permutation(self.SEEDS)]

    def reference_inputs(self):
        return list(self.SEEDS)

    def expected(self, reference, seed, inputs):
        return [reference[self.SEEDS.index(s)] for s in inputs]

    def run(self, demo_seed):
        self._ops += 1
        dest = self.work_dir / f"op{self._ops}"
        paths, checks = pipeline.run_demo(str(dest), seed=demo_seed)
        tables = [trace.load_table(p) for p in paths if Path(p).name != "summary.txt"]
        return dest, paths, checks, tables

    def recorded(self, out):
        dest, paths, _, _ = out
        digest = report_digest(paths)
        shutil.rmtree(dest)
        return digest

    def check(self, demo_seed, out, expected):
        dest, paths, checks, tables = out
        try:
            failed = [name for name, ok, _ in checks if not ok]
            if failed:
                return f"embedded checks failed: {failed}"
            if any(f.startswith("failed") for t in tables for f in t.flag):
                return "report has a failed row"
            if report_digest(paths) != expected:
                return f"report of demo seed {demo_seed} differs from its recorded digest"
            return None
        finally:
            shutil.rmtree(dest)
