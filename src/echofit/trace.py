"""Echo-trace and scan-table containers plus their text serialization.

Trace and table files open with ``# key: value`` headers, read by one
reader up to the first data row.  A trace declares its time unit (never
guessed), sequence and condition, then two numeric columns (time,
intensity); a table its condition axis and quantity, then csv rows.
"""

import csv
import itertools
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, InvalidOperation

import numpy as np

SEQUENCES = ("2ppe", "3ppe-vs-t23")

# A time in each unit is its value in ms times 10 ** exponent.  Times change
# unit by a shift of the decimal exponent of their shortest repr, not by a
# float product, so every time reads back as the float it was written from.
_UNIT_EXPONENT = {"ns": -6, "us": -3, "ms": 0, "s": 3}
# Decimal arithmetic that neither rounds nor overflows an exponent shift.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _header_text(text):
    """Whether ``text`` is a header value that reads back as itself: one line
    with no surrounding whitespace, which the reader strips, and no lone
    surrogate, which UTF-8 cannot encode."""
    if not isinstance(text, str) or "\n" in text or "\r" in text or text != text.strip():
        return False
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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
        if not _header_text(self.provenance):
            raise ValueError("provenance must be one line of UTF-8 text without "
                             f"surrounding whitespace, got {self.provenance!r}")

    @property
    def time_us(self):
        return self.time_ms * 1e3

    @property
    def n_points(self):
        return self.time_ms.size


def write_trace(trace: EchoTrace, path, unit_time="us"):
    """Write a trace in the documented text format, full float precision."""
    if unit_time not in _UNIT_EXPONENT:
        raise ValueError(f"unknown time unit {unit_time!r}")
    shift = -_UNIT_EXPONENT[unit_time]
    lines = [f"# unit-time: {unit_time}",
             f"# sequence: {trace.sequence}",
             f"# temperature_K: {trace.temperature_k:.17g}",
             f"# field_T: {trace.field_t:.17g}"]
    if trace.t12_us is not None:
        lines.append(f"# t12_us: {trace.t12_us:.17g}")
    if trace.provenance:
        lines.append(f"# provenance: {trace.provenance}")
    for t, v in zip(trace.time_ms.tolist(), trace.intensity):
        lines.append(f"{Decimal(repr(t)).scaleb(shift, _EXACT):g} {v:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_headers(path, fh, required):
    """``(headers, lines, n)``: the ``# key: value`` lines of ``fh`` before
    its first data row, and the lines from that row (line n + 1) on.
    A header without a colon and a missing ``required`` key are refused."""
    headers, n, row = {}, 0, ""
    for line in fh:
        text = line.strip()
        if text and not text.startswith("#"):
            row = line
            break
        n += 1
        if text:
            key, colon, val = text[1:].strip().partition(":")
            if not colon:
                raise ValueError(f"{path}:{n}: malformed header {text!r}")
            headers[key.strip()] = val.strip()
    for req in required:
        if req not in headers:
            raise ValueError(f"{path}: missing required '# {req}:' header")
    return headers, itertools.chain([row], fh), n


def load_trace(path):
    """Parse a trace file; see :func:`write_trace` for the format."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        headers, lines, n = _read_headers(
            path, fh, ("unit-time", "sequence", "temperature_K", "field_T"))
        for ln, raw in enumerate(lines, start=n + 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                raise ValueError(f"{path}:{ln}: header {line!r} after the first data row")
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln}: expected two columns, got {len(parts)}")
            try:
                time = Decimal(parts[0], _EXACT)
                if time.is_snan():      # Decimal reads it, but it is no number
                    raise ValueError
                rows.append((time, float(parts[1])))
            except (ValueError, InvalidOperation):
                raise ValueError(f"{path}:{ln}: non-numeric data {line!r}") from None

    unit = headers["unit-time"]
    if unit not in _UNIT_EXPONENT:
        raise ValueError(f"{path}: unknown time unit {unit!r}")
    shift = _UNIT_EXPONENT[unit]
    return EchoTrace(
        sequence=headers["sequence"],
        time_ms=[float(t.scaleb(shift, _EXACT)) for t, _ in rows],
        intensity=[v for _, v in rows],
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
        self.flag = [self.flag[k] for k in order.tolist()]
        negative = self.stderr < 0      # NaN is not negative
        if negative.any() and any(f == "" for f, n in zip(self.flag, negative.tolist()) if n):
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

    Every row after the header block is read by one csv reader, so a
    quoted flag may hold commas, quotes and newlines.
    """
    rows = []
    with open(path, newline="") as fh:
        headers, lines, n_head = _read_headers(path, fh, ("condition-axis", "quantity"))
        reader = csv.reader(lines)
        for parts in reader:
            if len(parts) < 2 and not "".join(parts).strip():
                continue  # blank line
            ln = n_head + reader.line_num
            if len(parts) != 4:
                raise ValueError(f"{path}:{ln}: expected 4 columns")
            try:
                rows.append((float(parts[0]), float(parts[1]), float(parts[2]), parts[3]))
            except ValueError:
                raise ValueError(f"{path}:{ln}: non-numeric data "
                                 f"{','.join(parts[:3])!r}") from None
    columns = [list(c) for c in zip(*rows)] if rows else [[], [], [], []]
    return ScanTable(headers["condition-axis"], headers["quantity"], *columns)
