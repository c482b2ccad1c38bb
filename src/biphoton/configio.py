"""Flat key-value run configuration with unit-suffixed numbers, and the
CSV writer every export shares.

Internal units are micrometers and radians; lengths accept um/mm/cm/m
suffixes (bare numbers are micrometers), angles accept an optional rad/deg
suffix. CLI flags override file values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .crystal import ExperimentConfig, load_crystal, read_key_values
from .errors import ConfigError

_LENGTH_UNITS = {"um": 1.0, "μm": 1.0, "mkm": 1.0, "mm": 1e3, "cm": 1e4, "m": 1e6}
_ANGLE_UNITS = {"rad": 1.0, "deg": math.pi / 180.0}

REFERENCE_CONFIG_NAME = "reference.config"

# Values formatted and written per block by write_csv; bounds its memory,
# not the file's.
CSV_BLOCK_ROWS = 4096


def parse_length(text: str) -> float:
    """Length with optional unit suffix, returned in micrometers."""
    return _parse_unit(text, _LENGTH_UNITS, "length")


def parse_angle(text: str) -> float:
    """Angle with optional rad/deg suffix, returned in radians."""
    return _parse_unit(text, _ANGLE_UNITS, "angle")


def _parse_unit(text: str, units: dict, what: str) -> float:
    s = text.strip()
    for suffix, factor in sorted(units.items(), key=lambda kv: -len(kv[0])):
        if s.endswith(suffix):
            num = s[: -len(suffix)].strip()
            break
    else:
        num, factor = s, 1.0
    try:
        return float(num) * factor
    except ValueError:
        raise ConfigError(f"cannot parse {what} value {text!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """Experiment parameters, which load_run_config takes from the reference
    config file, plus the grid size and the Gaussian-constant switch."""

    lambda_p: float  # um
    w: float  # um
    L: float  # um
    phi0: float  # rad
    crystal_name: str
    grid: int = 201
    published_constants: bool = False

    def experiment(self) -> ExperimentConfig:
        return ExperimentConfig(
            lambda_p=self.lambda_p, w=self.w, L=self.L, phi0=self.phi0,
            crystal=load_crystal(self.crystal_name),
        )


_KEY_PARSERS = {
    "lambda_p": ("lambda_p", parse_length),
    "w": ("w", parse_length),
    "L": ("L", parse_length),
    "phi0": ("phi0", parse_angle),
    "crystal": ("crystal_name", str),
    "grid": ("grid", int),
    "published_constants": (
        "published_constants",
        lambda s: s.lower() in ("1", "true", "yes"),
    ),
}


def load_run_config(path: str | Path | None = None, unread=(), **overrides) -> RunConfig:
    """The built-in reference config, with a config file (if given) laid over
    it and then the keyword overrides that are not None. Keys in `unread`,
    never read by the caller, are refused."""
    reference = resources.files("biphoton").joinpath(f"data/{REFERENCE_CONFIG_NAME}")
    values = _parse_run_config(reference.read_text(), REFERENCE_CONFIG_NAME, unread)
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = p.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        values.update(_parse_run_config(text, str(path), unread))
    values.update({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig(**values)
    if cfg.grid < 8:
        raise ConfigError(f"grid resolution too small: {cfg.grid}")
    return cfg


def _parse_run_config(text: str, source: str, unread) -> dict:
    """RunConfig fields set by a config file's text; errors name source:line."""
    values = {}
    for key, (lineno, val) in read_key_values(text, source).items():
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in unread:
            raise ConfigError(f"{source}:{lineno}: key {key!r} is not read by this command")
        attr, parser = _KEY_PARSERS[key]
        try:
            values[attr] = parser(val)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from None
    return values


def write_csv(path: str | Path, header, axes, values) -> None:
    """Write a product table as CSV: a header row, then one row for each
    coordinate of the C-order product of `axes`, ending in its value.

    An axis is a sequence of (format, column) pairs: equal-length columns
    (arrays or sliceable sequences such as `range`) with formats "%d", "%s"
    or "%.12g". `values` yields the "%.12g" value rows, one per coordinate
    of the outer axes in C order, each as long as the last axis: `[y]` for
    one axis, an array's rows, or a generator computing them as they are
    written. The bytes are those `csv.writer` gives for the same fields,
    text in UTF-8: CRLF row ends and no quoting, which none of these fields
    needs.

    The rows go out in blocks of about CSV_BLOCK_ROWS values: a slice of
    one value row, or as many whole rows as fit. The fields are formatted
    in numpy (see _fields) into byte rows padded with NULs, the outer axes
    and a last axis that fits in a block once for the whole table, the
    values once per block. A block is laid out as one byte matrix, its NULs
    dropped with one bytes.translate, and written with one write.
    """
    *outer, inner = axes
    shape = [len(axis[0][1]) for axis in outer]
    outer_text = [_narrow(_axis_text(axis, slice(None))) for axis in outer]
    n = len(inner[0][1])
    inner_text = _narrow(_axis_text(inner, slice(None))) if n <= CSV_BLOCK_ROWS else None
    per_block = max(1, CSV_BLOCK_ROWS // max(n, 1))
    rows = iter(values)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for first in range(0, math.prod(shape), per_block):
            count = min(per_block, math.prod(shape) - first)
            block = [_value_row(next(rows, None), n) for _ in range(count)]
            block = block[0][None] if count == 1 else np.array(block)  # no copy of a long row
            coords = np.unravel_index(np.arange(first, first + count), shape) if shape else ()
            prefix = [text[i][:, None] for text, i in zip(outer_text, coords)]
            for start in range(0, n, CSV_BLOCK_ROWS):
                s = slice(start, start + CSV_BLOCK_ROWS)
                vals = block[:, s]
                text = [inner_text if inner_text is not None else _axis_text(inner, s),
                        _g12(vals.ravel()).reshape(*vals.shape, -1), _CRLF]
                buf, _ = _join(prefix + text, vals.shape)
                fh.write(buf.translate(None, b"\0"))
    if next(rows, _END) is not _END:
        raise ValueError("more value rows than coordinates of the outer axes")


_END = object()
_COMMA = np.frombuffer(b",", np.uint8)
_CRLF = np.frombuffer(b"\r\n", np.uint8)


def _value_row(row, n: int) -> np.ndarray:
    if row is None:
        raise ValueError("fewer value rows than coordinates of the outer axes")
    row = np.asarray(row, dtype=float)
    if row.shape != (n,):
        raise ValueError(f"value row of shape {row.shape}, expected ({n},)")
    return row


def _axis_text(axis, rows: slice) -> np.ndarray:
    """Rows of an axis as byte rows: each field, then a comma."""
    parts = [part for fmt, col in axis for part in (_fields(fmt, col[rows]), _COMMA)]
    return _join(parts, (len(parts[0]),))[1]


def _narrow(rows: np.ndarray) -> np.ndarray:
    """Byte rows with their NULs moved to the end, in the narrowest width."""
    keep = rows != 0
    lengths = keep.sum(axis=1)
    out = np.zeros((len(rows), lengths.max(initial=0)), np.uint8)
    out[np.arange(out.shape[1]) < lengths[:, None]] = rows[keep]
    return out


def _join(parts, shape) -> tuple[bytearray, np.ndarray]:
    """Byte rows side by side, each part broadcast to `shape` rows: a
    bytearray and the array of rows it holds."""
    width = sum(p.shape[-1] for p in parts)
    buf = bytearray(math.prod(shape) * width)
    rows = np.frombuffer(buf, np.uint8).reshape(*shape, width)
    start = 0
    for p in parts:
        rows[..., start : start + p.shape[-1]] = p
        start += p.shape[-1]
    return buf, rows


def _digit_table() -> np.ndarray:
    """Entry 4 g + c: the first c digits of "%03d" % g, each followed by a
    NUL slot that can take a decimal point, as one little-endian uint64."""
    digits = np.array([b"%03d" % g for g in range(1000)]).view(np.uint8).reshape(1000, 3)
    table = np.zeros((1000, 4, 8), np.uint8)
    for c in range(1, 4):
        table[:, c, 0 : 2 * c : 2] = digits[:, :c]
    return table.reshape(-1).view("<u8")


def _point_table() -> np.ndarray:
    """Row j, entry p: a "." in the slot after digit p - 1 of the mantissa,
    if that slot is in its three-digit group j."""
    table = np.zeros((4, 13), "<u8")
    for p in range(1, 13):
        table[(p - 1) // 3, p] = ord(".") << (16 * ((p - 1) % 3) + 8)
    return table


def _cells(strings) -> np.ndarray:
    return np.array(strings, "S8").view("<u8")


_DIGITS = _digit_table()
_POINT = _point_table()
# row j, entry k: how many of the first k digits fall in three-digit group j
_COUNT = np.clip(np.arange(19) - 3 * np.arange(6)[:, None], 0, 3)
# trailing zeros of "%03d" % g (3 for g = 0)
_TRAILING_ZEROS = sum((np.arange(1000) % 10**k == 0).astype(np.int64) for k in (1, 2, 3))
# entry e + 280: min(max(e + 1, 0), 12)
_LEADING = np.clip(np.arange(-279, 282), 0, 12)
# sign, then "0." and the zeros after it of fixed notation below 1: index 5 sign + z
_HEAD = _cells([sign + prefix for sign in (b"", b"-")
                for prefix in (b"", b"0.", b"0.0", b"0.00", b"0.000")])
# exponent e of [-280, 280] at index e + 280; none at index 561
_EXPONENT = _cells([b"e%+03d" % e for e in range(-280, 281)] + [b""])
# 10**(11 - e) for the exponents e of [1e-280, 1e280], correctly rounded
_SCALE = np.array([float(f"1e{11 - e}") for e in range(-280, 281)])
_POWERS = 10 ** np.arange(19, dtype=np.int64)
_INT_LIMIT = 10**16


def _fields(fmt: str, col) -> np.ndarray:
    """fmt % v for each v of a column, as (len(col), width) uint8 rows,
    left to right with NUL bytes anywhere (no field holds a NUL). "%d" on
    integers below 1e16 in size, "%s" on ASCII strings and "%.12g" on
    numbers are built in numpy; other fields go through Python's `%`."""
    col = np.arange(col.start, col.stop, col.step) if isinstance(col, range) else np.asarray(col)
    kind = col.dtype.kind
    if fmt == "%.12g" and kind in "biuf":
        return _g12(col.astype(float, copy=False))
    if fmt == "%d" and kind in "biu" and np.can_cast(col.dtype, np.int64):
        v = col.astype(np.int64, copy=False)
        if -_INT_LIMIT < v.min(initial=0) and v.max(initial=0) < _INT_LIMIT:
            return _d(v)
    if fmt == "%s" and kind == "U":
        codes = np.ascontiguousarray(col).view(np.uint32).reshape(len(col), col.itemsize // 4)
        if codes.max(initial=0) < 128:
            return codes.astype(np.uint8)
    return _byte_rows(np.array([(fmt % v).encode() for v in col.tolist()], dtype=bytes))


def _byte_rows(strings: np.ndarray) -> np.ndarray:
    return strings.view(np.uint8).reshape(len(strings), strings.itemsize)


def _stack(cells: list) -> np.ndarray:
    """Columns of 8-byte cells as byte rows, all-NUL columns left out."""
    kept = [c for c in cells if c.any()] or cells[:1]
    return np.stack(kept, axis=1).astype("<u8", copy=False).view(np.uint8)


def _d(v: np.ndarray) -> np.ndarray:
    """"%d" of int64 v, |v| < 1e16: the sign, then the nd digits of |v|,
    scaled to the top of whole three-digit groups and read from _DIGITS."""
    a = np.abs(v)
    nd = np.maximum(np.searchsorted(_POWERS, a, side="right"), 1)
    groups = -(-int(nd.max(initial=1)) // 3)
    a *= _POWERS.take(3 * groups - nd)
    cells = [_HEAD.take(5 * (v < 0))]
    for j in range(groups):
        g = a // _POWERS[3 * (groups - 1 - j)] % 1000
        cells.append(_DIGITS.take(4 * g + _COUNT[j].take(nd)))
    return _stack(cells)


def _g12(x: np.ndarray) -> np.ndarray:
    """"%.12g" of float64 x as byte rows of 8-byte cells: the sign with the
    "0.000" head of fixed notation below 1, 12 digits each followed by a
    slot for the point, and the exponent.

    With e the decimal exponent from log10 and m = |x| 10**(11 - e) from
    _SCALE, m carries the relative error of two roundings, at most 2.3e-16,
    so at most 2.3e-4 of a unit in its last place at m < 1e12. Its nearest
    integer M is then the correctly rounded 12-digit mantissa unless the
    fraction of m lies within 1e-3 of 1/2. Those values, values whose e
    was off by one (m outside [1e11, 1e12)), |x| outside [1e-280, 1e280]
    (subnormals among them), inf and nan go to Python's `%`; they are few.
    M = 1e12, from rounding up to the next power of ten, is 1e11 at e + 1.
    Zeros take e = 0 and M = 0, which gives "0" and "-0". Python's %g rule
    then picks fixed notation for -4 <= e < 12, strips trailing zeros, and
    drops a point that no digit follows.
    """
    a = np.abs(x)
    nonzero = a != 0
    in_range = (a >= 1e-280) & (a <= 1e280)
    a[~in_range] = 1.0  # zeros, subnormals, inf and nan
    e = np.floor(np.log10(a)).astype(np.int64)
    m = a * _SCALE.take(e + 280)
    mantissa = np.floor(m)
    frac = m - mantissa
    fast = in_range & (m >= 1e11) & (m < 1e12) & (np.abs(frac - 0.5) > 1e-3) | ~nonzero
    mantissa += frac > 0.5
    mantissa *= nonzero
    top = mantissa == 1e12
    mantissa[top] = 1e11
    e += top
    # the mantissa's three-digit groups, exact below 2**53; its trailing zeros
    groups = []
    for unit in (1e9, 1e6, 1e3):
        groups.append(np.floor(mantissa / unit))
        mantissa -= groups[-1] * unit
    groups = [g.astype(np.int64) for g in (*groups, mantissa)]
    zeros = 0
    for g in groups:
        zeros = _TRAILING_ZEROS.take(g) + (g == 0) * zeros
    exponent = (e < -4) | (e >= 12)
    below_one = (e < 0) & ~exponent
    point = _LEADING.take(e + 280)  # digits before the point
    point += exponent * (1 - point)
    keep = np.maximum(12 - zeros, point)  # digits written
    point *= keep > point  # 0: no point

    cells = [_HEAD.take(5 * np.signbit(x) - e * below_one)]
    for j, g in enumerate(groups):
        cells.append(_DIGITS.take(4 * g + _COUNT[j].take(keep)) | _POINT[j].take(point))
    cells.append(_EXPONENT.take(561 + exponent * (e - 281)))
    slow = np.flatnonzero(~fast)
    if len(slow):  # at most 19 bytes, in the first three cells
        text = np.array([b"%.12g" % v for v in x[slow].tolist()], "S24").view("<u8")
        for k, cell in enumerate(cells):
            cell[slow] = text[k::3] if k < 3 else 0
    return _stack(cells)
