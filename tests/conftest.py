"""Shared fixtures: the reference configuration and its derived scales.

Frozen expected values in the tests were computed beforehand with
independent oracles (hand-evaluated dispersion polynomials, bisection root
finding, finite differences, dense quadrature) and are asserted against
the library, not recomputed from it.
"""

import csv

import pytest

from biphoton import (
    ExperimentConfig,
    azimuthal_widths,
    derive_scales,
    load_crystal,
)


@pytest.fixture(scope="session")
def bbo():
    return load_crystal("BBO")


@pytest.fixture(scope="session")
def ref_config(bbo):
    """lambda_p = 0.4047 um, w = 1464 um, L = 0.5 cm, phi0 = 0.7 rad."""
    return ExperimentConfig(lambda_p=0.4047, w=1464.0, L=5000.0, phi0=0.7, crystal=bbo)


@pytest.fixture(scope="session")
def ref_scales(ref_config):
    return derive_scales(ref_config)


@pytest.fixture(scope="session")
def ref_dist(ref_scales):
    return azimuthal_widths(ref_scales)


@pytest.fixture
def csv_reference(tmp_path):
    """A function giving the bytes csv.writer writes for a header and rows,
    floats formatted as f'{v:.12g}': the oracle the CSV exports are
    compared with byte for byte."""

    def reference_bytes(header, rows) -> bytes:
        path = tmp_path / "reference.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
        return path.read_bytes()

    return reference_bytes
