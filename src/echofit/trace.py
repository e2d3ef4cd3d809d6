"""Echo-trace and scan-table containers plus their text serialization.

Trace files are self-describing delimited text: header lines of the form
``# key: value`` declaring the time unit, sequence type and measurement
condition, followed by two numeric columns (time, intensity).  A missing
time-unit header is a hard error; units are never guessed.
"""

import csv
import itertools
from dataclasses import dataclass

import numpy as np

SEQUENCES = ("2ppe", "3ppe-vs-t23")

_UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


@dataclass
class EchoTrace:
    """One echo-intensity series.

    Times are stored in milliseconds regardless of the unit a file
    declared; ``time_us`` gives the microsecond view the models use.  For
    2ppe the time axis is the pulse separation t12, for 3ppe-vs-t23 it is
    the waiting time (with the fixed t12 in ``t12_us``).
    """

    sequence: str
    time_ms: np.ndarray
    intensity: np.ndarray
    temperature_k: float
    field_t: float
    t12_us: float = None
    provenance: str = ""

    def __post_init__(self):
        if self.sequence not in SEQUENCES:
            raise ValueError(f"unknown sequence {self.sequence!r}; "
                             f"expected one of {SEQUENCES}")
        self.time_ms = np.asarray(self.time_ms, dtype=float)
        self.intensity = np.asarray(self.intensity, dtype=float)
        if self.time_ms.ndim != 1 or self.time_ms.shape != self.intensity.shape:
            raise ValueError("time and intensity must be 1-D and equal length")
        if not np.all(np.isfinite(self.time_ms)):
            raise ValueError("times must be finite")
        if self.time_ms.size and np.any(np.diff(self.time_ms) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.intensity)):
            raise ValueError("intensities must be finite")
        if not (self.temperature_k > 0):
            raise ValueError("temperature_k must be > 0")
        if self.field_t < 0:
            raise ValueError("field_t must be >= 0")
        if self.sequence == "3ppe-vs-t23" and self.t12_us is None:
            raise ValueError("3ppe-vs-t23 traces need the fixed t12_us")

    @property
    def time_us(self):
        return self.time_ms * 1e3

    @property
    def n_points(self):
        return self.time_ms.size


def write_trace(trace: EchoTrace, path, unit_time="us"):
    """Write a trace in the documented text format, full float precision."""
    if unit_time not in _UNIT_TO_MS:
        raise ValueError(f"unknown time unit {unit_time!r}")
    scale = _UNIT_TO_MS[unit_time]
    lines = [f"# unit-time: {unit_time}",
             f"# sequence: {trace.sequence}",
             f"# temperature_K: {trace.temperature_k:.17g}",
             f"# field_T: {trace.field_t:.17g}"]
    if trace.t12_us is not None:
        lines.append(f"# t12_us: {trace.t12_us:.17g}")
    if trace.provenance:
        lines.append(f"# provenance: {trace.provenance}")
    for t, v in zip(trace.time_ms, trace.intensity):
        lines.append(f"{t / scale:.17g} {v:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_trace(path):
    """Parse a trace file; see :func:`write_trace` for the format."""
    headers = {}
    rows = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" not in body:
                    raise ValueError(f"{path}:{ln}: malformed header {line!r}")
                key, _, val = body.partition(":")
                headers[key.strip()] = val.strip()
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln}: expected two columns, got {len(parts)}")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValueError(f"{path}:{ln}: non-numeric data {line!r}") from None

    if "unit-time" not in headers:
        raise ValueError(f"{path}: missing required '# unit-time:' header")
    unit = headers["unit-time"]
    if unit not in _UNIT_TO_MS:
        raise ValueError(f"{path}: unknown time unit {unit!r}")
    for req in ("sequence", "temperature_K", "field_T"):
        if req not in headers:
            raise ValueError(f"{path}: missing required '# {req}:' header")
    data = np.array(rows, dtype=float).reshape(-1, 2)
    return EchoTrace(
        sequence=headers["sequence"],
        time_ms=data[:, 0] * _UNIT_TO_MS[unit],
        intensity=data[:, 1],
        temperature_k=float(headers["temperature_K"]),
        field_t=float(headers["field_T"]),
        t12_us=float(headers["t12_us"]) if "t12_us" in headers else None,
        provenance=headers.get("provenance", ""),
    )


QUANTITY_IDS = ("gamma_eff", "i0", "x", "gamma0", "gamma_tls", "gamma_sd",
                "r_sd", "beta")
CONDITION_AXES = ("field", "temperature")


@dataclass
class ScanTable:
    """A derived quantity versus an experimental condition.

    Rows are sorted by condition at construction.  ``flag`` is an empty
    string for clean rows; failed fits keep their row with a flag and NaN
    value so batch output length always matches the input.
    """

    condition_axis: str
    quantity_id: str
    condition: np.ndarray
    value: np.ndarray
    stderr: np.ndarray
    flag: list

    def __post_init__(self):
        if self.condition_axis not in CONDITION_AXES:
            raise ValueError(f"unknown condition axis {self.condition_axis!r}")
        if self.quantity_id not in QUANTITY_IDS:
            raise ValueError(f"unknown quantity id {self.quantity_id!r}")
        self.condition = np.asarray(self.condition, dtype=float)
        self.value = np.asarray(self.value, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        n = self.condition.size
        if not (self.value.size == self.stderr.size == len(self.flag) == n):
            raise ValueError("table columns must have equal length")
        order = np.argsort(self.condition, kind="stable")
        self.condition = self.condition[order]
        self.value = self.value[order]
        self.stderr = self.stderr[order]
        self.flag = [self.flag[k] for k in order]
        clean = np.array([f == "" for f in self.flag], dtype=bool)
        bad = clean & ~(np.isnan(self.stderr) | (self.stderr >= 0))
        if np.any(bad):
            raise ValueError("stderr must be >= 0 on clean rows")

    @property
    def n_rows(self):
        return self.condition.size


def write_table(table: ScanTable, path, fmt="%.17g"):
    """Write a table as comma-separated rows under ``# key: value`` headers.

    Flags are free text; the csv module's minimal quoting encloses one that
    holds a comma, a double quote or a newline in quotes, so it reads back
    intact.  It leaves a lone carriage return bare, which a reader takes
    for a line end, so a row whose flag holds one is quoted whole.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# condition-axis: {table.condition_axis}\n"
                 f"# quantity: {table.quantity_id}\n"
                 "# columns: condition,value,stderr,flag\n")
        rows = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for c, v, s, f in zip(table.condition, table.value, table.stderr, table.flag):
            (quoted if "\r" in f else rows).writerow((fmt % c, fmt % v, fmt % s, f))


def load_table(path):
    """Read a table written by :func:`write_table`.

    The ``# key: value`` header lines come first.  Every row after them is
    read by one csv reader, so a quoted flag may hold commas, quotes and
    newlines.
    """
    headers = {}
    rows = []
    with open(path, newline="") as fh:
        n_head = 0
        first = ""
        for line in fh:
            text = line.strip()
            if text and not text.startswith("#"):
                first = line
                break
            n_head += 1
            if text:
                key, _, val = text[1:].strip().partition(":")
                headers[key.strip()] = val.strip()
        reader = csv.reader(itertools.chain([first], fh))
        for parts in reader:
            if len(parts) < 2 and not "".join(parts).strip():
                continue  # blank line
            if len(parts) != 4:
                raise ValueError(f"{path}:{n_head + reader.line_num}: expected 4 columns")
            rows.append(parts)
    for req in ("condition-axis", "quantity"):
        if req not in headers:
            raise ValueError(f"{path}: missing required '# {req}:' header")
    cond = np.array([float(r[0]) for r in rows])
    val = np.array([float(r[1]) for r in rows])
    err = np.array([float(r[2]) for r in rows])
    flags = [r[3] for r in rows]
    return ScanTable(headers["condition-axis"], headers["quantity"],
                     cond, val, err, flags)
