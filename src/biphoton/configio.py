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

# Rows formatted per `%` call in write_csv; bounds its memory, not the file's.
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
    """Experiment parameters plus the grid size and the Gaussian-constant switch."""

    lambda_p: float = 0.4047  # um
    w: float = 1464.0  # um
    L: float = 5000.0  # um
    phi0: float = 0.7  # rad
    crystal_name: str = "BBO"
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


def load_run_config(path: str | Path | None = None, **overrides) -> RunConfig:
    """Load a config file (or the built-in reference when path is None) and
    apply keyword overrides."""
    if path is None:
        text = (
            resources.files("biphoton")
            .joinpath(f"data/{REFERENCE_CONFIG_NAME}")
            .read_text()
        )
        source = REFERENCE_CONFIG_NAME
    else:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = p.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        source = str(path)

    values: dict = {}
    for key, (lineno, val) in read_key_values(text, source).items():
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        attr, parser = _KEY_PARSERS[key]
        try:
            values[attr] = parser(val)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from None

    values.update({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig(**values)
    if cfg.grid < 8:
        raise ConfigError(f"grid resolution too small: {cfg.grid}")
    return cfg


def write_csv(path: str | Path, header, formats, blocks) -> None:
    """Write a header row, then the rows of each block, as CSV.

    `formats` holds one %-format per column ("%d", "%s", "%.12g"); each
    block is a tuple of equal-length columns, arrays or sliceable sequences
    such as `range`, converted to arrays a run at a time. The bytes are those
    `csv.writer` gives for the same fields: CRLF row ends and no quoting,
    which none of these fields needs. Rows are formatted CSV_BLOCK_ROWS at
    a time with one `%` call on a repeated row template.
    """
    row = ",".join(formats) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            for start in range(0, len(block[0]), CSV_BLOCK_ROWS):
                run = [np.asarray(c[start : start + CSV_BLOCK_ROWS]) for c in block]
                # with a string column, an object table keeps each field's own type
                numeric = all(c.dtype.kind in "iuf" for c in run)
                table = np.stack(run, axis=1, dtype=None if numeric else object)
                fh.write((row * len(run[0])) % tuple(table.ravel().tolist()))
