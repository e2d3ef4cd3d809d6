"""Seeded synthetic traces and scan tables from the model catalog.

Everything here is a pure function of (spec, seed): identical inputs give
bit-identical output, which is what makes the round-trip fit tests and
the demo report reproducible.  The seed is checked first; the values come
from :func:`echofit.catalog.evaluate`, so synth refuses what a law refuses.

Each grid is built and checked once per process, a tuple keyed by its
items and explicit points by their shape and bytes; each design (model,
checked true and fixed values, grid, fixed t12) is evaluated once.  Both
are kept read-only in a cache of ``_CACHE_SIZE`` entries.  A call refuses
what it would with an empty cache, draws its own noise and returns no
cached array.

Which data a model makes is decided here once.  By :func:`trace_sequence`
a log-intensity model makes traces, ``2ppe`` with one x column and
``3ppe-vs-t23`` with two; by :func:`scan_table` a law makes tables over
one condition axis; the rest (sd) make neither.
"""

from collections import OrderedDict
from dataclasses import dataclass, field as dc_field

import numpy as np

from .catalog import CATALOG, evaluate, get_model, read
from .trace import EchoTrace, ScanTable
from .values import FitError, _finite

NOISE_KINDS = ("none", "multiplicative", "additive")
_CACHE_SIZE = 64
_CACHE = OrderedDict()      # a grid's or a design's key -> its read-only array


@dataclass(frozen=True)
class Modulation:
    """Phenomenological echo-amplitude modulation envelope.

    Applies (1 + depth*cos(2*pi*freq*2*t12)*exp(-2*t12/decay)) to 2ppe
    traces; freq in MHz against t12 in microseconds.  An infinite decay
    leaves the modulation undamped.
    """

    depth: float
    freq_mhz: float
    decay_us: float

    def __post_init__(self):
        if not (_finite(self.depth) and 0.0 <= self.depth <= 1.0):
            raise ValueError(f"modulation depth must be a number in [0, 1], got {self.depth!r}")
        if not (_finite(self.freq_mhz) and self.freq_mhz > 0):
            raise ValueError("modulation frequency must be a finite number > 0, "
                             f"got {self.freq_mhz!r}")
        if not ((_finite(self.decay_us) or self.decay_us == np.inf) and self.decay_us > 0):
            raise ValueError(f"modulation decay must be > 0, got {self.decay_us!r}")

    def factor(self, t12_us):
        t = np.asarray(t12_us, dtype=float)
        return 1.0 + (self.depth * np.cos(2.0 * np.pi * self.freq_mhz * 2.0 * t)
                      * np.exp(-2.0 * t / self.decay_us))


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic trace.

    grid is either an explicit strictly increasing array of sample times
    or a tuple (lo, hi, count, "linear"|"log").  noise is (kind, sigma)
    with kind from NOISE_KINDS; multiplicative sigma is relative, additive
    sigma is in intensity units.  fixed carries the model's non-fitted
    values plus, for the two-delay models, the trace's fixed "t12_us".
    """

    model_id: str
    true_params: dict
    grid: object
    noise: tuple = ("none", 0.0)
    seed: int = 0
    modulation: Modulation = None
    temperature_k: float = 0.007
    field_t: float = 0.0
    fixed: dict = dc_field(default_factory=dict)


def build_grid(grid):
    """The points of ``grid``, new for a tuple; explicit ones not finite get the laws' text."""
    if isinstance(grid, tuple) and len(grid) == 4:
        lo, hi, count, spacing = grid
        if spacing not in ("linear", "log"):
            raise ValueError(f"unknown grid spacing {spacing!r}")
        if spacing == "log" and lo <= 0:
            raise ValueError("log spacing needs a positive lower edge")
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
            raise ValueError(f"grid count must be an int >= 1, got {count!r}")
        if not np.isfinite((lo, hi)).all():
            raise ValueError(f"grid edges must be finite, got {lo!r} and {hi!r}")
        pts = (np.linspace if spacing == "linear" else np.geomspace)(lo, hi, int(count))
    else:
        pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or pts.size < 1:
        raise ValueError("grid must be a 1-D set of points")
    if not np.isfinite(pts).all():
        raise FitError("x values must be finite")
    if np.any(np.diff(pts) <= 0):
        raise ValueError("grid points must be strictly increasing")
    return pts


def _kept(key, make):
    """The cached array under ``key``, else ``make()``'s, kept read-only."""
    arr = _CACHE.get(key)
    if arr is None:
        arr = make()
        arr.flags.writeable = False
        _CACHE[key] = arr
        while len(_CACHE) > _CACHE_SIZE:    # atomic steps, safe across threads
            _CACHE.popitem(last=False)
    return arr


def _design_grid(grid):
    """``(key, points)``, built and checked once: a tuple keyed by its items' reprs
    (apart: -0.0 and 0.0, float32 and float), explicit points by their shape and
    bytes as floats, taken from a copy that the cache may keep."""
    if isinstance(grid, tuple) and len(grid) == 4:
        key = ("grid", tuple(map(repr, grid)))
        return key, _kept(key, lambda: build_grid(grid))
    pts = np.array(grid, dtype=float)
    key = ("grid", pts.shape, pts.tobytes())
    return key, _kept(key, lambda: build_grid(pts))


def _noiseless(model_id, params, fixed, grid_key, pts, t12=None):
    """The model's values on ``pts`` (at ``t12``), keyed once :func:`read` checks them."""
    _, theta, checked = read(model_id, params, fixed, kind="true")
    key = (model_id, theta.tobytes(), tuple(checked.values()), grid_key, repr(t12))
    xs = (pts,) if t12 is None else (t12, pts)
    return _kept(key, lambda: evaluate(model_id, params, xs, fixed, kind="true"))


def _apply_noise(y, noise, rng):
    kind, sigma = noise
    if kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}")
    if not (_finite(sigma) and sigma >= 0):
        raise ValueError(f"noise sigma must be a finite number >= 0, got {sigma!r}")
    if kind == "none" or sigma == 0.0:
        return y.copy()
    draw = rng.standard_normal(y.shape)
    if kind == "multiplicative":
        return y * (1.0 + sigma * draw)
    return y + sigma * draw


def _rng(seed):
    """The noise generator of ``seed``, which must be >= 0."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def trace_sequence(model_id):
    """The sequence of the traces ``model_id`` makes; one that makes none is refused."""
    spec = get_model(model_id)
    if spec.space != "log-intensity":
        makers = ", ".join(m for m, s in CATALOG.items() if s.space == "log-intensity")
        raise ValueError(f"model {model_id!r} makes no echo traces; {makers} do")
    return "2ppe" if len(spec.x_domain) == 1 else "3ppe-vs-t23"


def synth_trace(spec: SynthSpec) -> EchoTrace:
    """Evaluate spec.model_id on the grid, apply optional modulation and
    seeded noise, and wrap the result as an EchoTrace."""
    rng = _rng(spec.seed)
    sequence = trace_sequence(spec.model_id)
    grid_key, pts = _design_grid(spec.grid)

    t12_fixed = None
    if len(get_model(spec.model_id).x_domain) == 2:
        if spec.modulation is not None:
            raise ValueError("modulation applies to 2ppe traces only")
        if "t12_us" not in spec.fixed:
            raise ValueError("two-delay models need fixed['t12_us'] for the trace")
        t12_fixed = spec.fixed["t12_us"]
        if not _finite(t12_fixed):
            raise FitError(f"fixed value t12_us must be a finite number, got {t12_fixed!r}")
        t12_fixed = float(t12_fixed)

    y = _noiseless(spec.model_id, spec.true_params, spec.fixed, grid_key, pts, t12_fixed)
    if spec.modulation is not None:
        y = y * spec.modulation.factor(pts)
    y = _apply_noise(y, spec.noise, rng)

    items = ",".join(f"{k}={spec.true_params[k]:.17g}"
                     for k in sorted(spec.true_params))
    provenance = f"synth model={spec.model_id} seed={spec.seed} truth[{items}]"
    return EchoTrace(
        sequence=sequence,
        time_ms=pts * 1e-3,
        intensity=y,
        temperature_k=spec.temperature_k,
        field_t=spec.field_t,
        t12_us=t12_fixed,
        provenance=provenance,
    )


def scan_table(model_id):
    """``(condition axis, quantity)`` of the law ``model_id``'s tables; a
    model that makes none is refused."""
    tables = {"field": ("field", "gamma_eff"), "temp": ("temperature", "gamma_eff"),
              "sech2": ("field", "gamma_sd")}
    if model_id not in tables:
        raise ValueError(f"model {model_id!r} is not a condition-scan model")
    return tables[model_id]


def synth_scan(model_id, true_params, condition_grid, noise=("none", 0.0),
               seed=0, fixed=None) -> ScanTable:
    """Synthetic linewidth-versus-condition table for the scan models; the
    true and fixed values are read as by :func:`synth_trace`."""
    rng = _rng(seed)
    axis, quantity = scan_table(model_id)
    grid_key, pts = _design_grid(condition_grid)
    y = _noiseless(model_id, true_params, fixed, grid_key, pts)
    noisy = _apply_noise(y, noise, rng)
    kind, sigma = noise
    if kind == "multiplicative":
        stderr = sigma * np.abs(y)
    elif kind == "additive":
        stderr = np.full(y.shape, float(sigma))
    else:
        stderr = np.zeros(y.shape)
    return ScanTable(
        condition_axis=axis,
        quantity_id=quantity,
        condition=pts,
        value=noisy,
        stderr=stderr,
        flag=[""] * pts.size,
    )
