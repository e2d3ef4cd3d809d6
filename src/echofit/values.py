"""The one rule by which every model value is read.

A model's free parameters are described by its ParamSpecs in
:mod:`echofit.catalog`: a name, the transform the fitter works in, and the
range a value must lie in.  Its fixed values (a temperature, a lifetime, a
reference time) are named by the spec's ``fixed_names``, its x columns by
XColumns.  Whoever is handed such values (the fit engine, the guesses,
``catalog.evaluate``, the CLI) reads them here: ``_numbers`` takes each
named value as a float, ``_parameters`` adds the refusal of a name the
model does not have and the range of each ParamSpec, and ``XColumn.check``
refuses an x value outside its domain.  This module imports nothing of the
package, so the laws can use it although the catalog imports them.
"""

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

# Fit bounds for the box-constrained parameters.
X_BOUNDS = (0.3, 4.0)
EXPONENT_BOUNDS = (0.5, 3.0)
BETA_BOUNDS = (0.0, 2.0)


class FitError(ValueError):
    """Raised for invalid model values and undeterminable fit problems."""


@dataclass(frozen=True)
class ParamSpec:
    """One free parameter: a "log" one is >= 0 (> 0 when ``positive``), a
    "logit" one lies in [lo, hi]."""

    name: str
    transform: str  # "log" or "logit"
    lo: float = 0.0
    hi: float = 0.0
    positive: bool = False

    def check(self, value):
        """Raise a FitError naming this parameter when ``value`` is out of
        its range."""
        if self.transform == "logit":
            if not self.lo <= value <= self.hi:
                raise FitError(f"{self.name} must lie in [{self.lo}, {self.hi}]")
        elif self.positive and not value > 0:
            raise FitError(f"{self.name} must be > 0")
        elif not value >= 0:
            raise FitError(f"{self.name} must be >= 0")


@dataclass(frozen=True)
class XColumn:
    """One x column and its domain: every value finite and at least ``lo``
    (above it when ``strict``), a number or the name of a fixed value."""

    name: str
    lo: object = -np.inf
    strict: bool = False

    def check(self, x, fixed):
        """Refuse an entry of the array ``x`` outside this domain."""
        if not np.isfinite(x).all():
            raise FitError("x values must be finite")
        lo = fixed[self.lo] if isinstance(self.lo, str) else self.lo
        outside = x <= lo if self.strict else x < lo
        if outside.any():
            raise FitError(f"x value {self.name} must be {'>' if self.strict else '>='} "
                           f"{self.lo}, got {float(x[outside].flat[0])!r}")


def _finite(value):
    """Whether ``value`` is a finite real number.  A bool is not one, nor an
    int beyond the float range."""
    # float and int are tested first: they are Real, and the check against
    # the Real ABC alone costs about half a microsecond.
    try:
        return (isinstance(value, (float, int, Real)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:   # an int (or Fraction) beyond the float range
        return False


def _numbers(model_id, kind, names, values):
    """The ``kind`` ("init", "fixed", ...) values ``names`` of the mapping
    ``values`` as floats; a FitError names one missing or not finite, or a
    fixed value that is not > 0.  Every fixed quantity of the catalog is a
    temperature, a lifetime or a reference time."""
    values = values or {}
    missing = [n for n in names if n not in values]
    if missing:
        raise FitError(f"model {model_id!r} needs {kind} values for {missing}")
    for name in names:
        value = values[name]
        if not _finite(value):
            raise FitError(f"{kind} value {name} must be a finite number, got {value!r}")
        if kind == "fixed" and value <= 0:
            raise FitError(f"fixed value {name} must be > 0, got {float(value)!r}")
    return np.array([values[n] for n in names], dtype=float)


def _known(model_id, names, values, hint=""):
    """Refuse a key of the mapping ``values`` that is not one of ``names``,
    the model's parameters; ``hint`` ends the text."""
    unknown = [k for k in values or () if k not in names]
    if unknown:
        raise FitError(f"model {model_id!r} has no parameters {unknown}; its "
                       f"parameters are {', '.join(names)}{hint}")


def _parameters(model_id, kind, params, values):
    """The ``kind`` values of the ParamSpecs ``params`` from the mapping
    ``values`` as floats: a name that is not one of them is refused, each
    value is read by ``_numbers`` and then checked against its range."""
    names = tuple(p.name for p in params)
    _known(model_id, names, values)
    theta = _numbers(model_id, kind, names, values)
    for p, value in zip(params, theta.tolist()):
        p.check(value)
    return theta
