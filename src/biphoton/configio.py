"""Flat key-value run configuration with unit-suffixed numbers, and the
CSV writer every export shares.

Internal units are micrometers and radians; lengths accept um/mm/cm/m
suffixes (bare numbers are micrometers), angles accept an optional rad/deg
suffix. CLI flags override file values.
"""

from __future__ import annotations

import functools
import itertools
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

# Rows of the last axis formatted per `%` call in write_csv; bounds its
# memory, not the file's.
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
    written. The bytes are those `csv.writer` gives for the same fields:
    CRLF row ends and no quoting, which none of these fields needs.

    Each coordinate is formatted once: the outer ones into a row prefix p,
    the last axis, CSV_BLOCK_ROWS rows at a time, into a block of rows with
    the value's "%.12g" left open. Each block of values is then written
    with one `%` call on the block with p in front of every row.
    """
    *outer, inner = axes
    prefixes = [""]
    for axis in outer:
        rows = _axis_text(axis, 0, len(axis[0][1])).split("\r\n")[:-1]
        prefixes = [p + r + "," for p in prefixes for r in rows]
    n = len(inner[0][1])

    def block(start: int) -> str:
        text = _axis_text(inner, start, start + CSV_BLOCK_ROWS)
        return text.replace("\r\n", ",%.12g\r\n")

    if len(prefixes) > 1:  # every prefix reuses the last axis's text
        block = functools.cache(block)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for p, row in zip(prefixes, values, strict=True):
            row = np.asarray(row, dtype=float)
            if row.shape != (n,):
                raise ValueError(f"value row of shape {row.shape}, expected ({n},)")
            for start in range(0, n, CSV_BLOCK_ROWS):
                text = block(start)
                if p:
                    text = p + text[:-2].replace("\r\n", "\r\n" + p) + "\r\n"
                fh.write(text % tuple(row[start : start + CSV_BLOCK_ROWS].tolist()))


def _axis_text(axis, start: int, stop: int) -> str:
    """Rows start:stop of an axis as CSV text, formatted with one `%` call:
    fields joined by ",", each row ending in CRLF, every "%" doubled so that
    the text can go into a %-template."""
    columns = [_column_list(col[start:stop]) for _, col in axis]
    row = ",".join(fmt for fmt, _ in axis) + "\r\n"
    fields = tuple(itertools.chain.from_iterable(zip(*columns, strict=True)))
    return ((row * len(columns[0])) % fields).replace("%", "%%")


def _column_list(col) -> list:
    # np.asarray would convert a range element by element
    return list(col) if isinstance(col, range) else np.asarray(col).tolist()
