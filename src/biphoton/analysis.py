"""Azimuthal entanglement quantified three ways.

Width ratio R, the analytic double-Gaussian Schmidt spectrum, and the OAM
spectrum, plus two oracles used to cross-validate the closed forms: a
discretized-kernel eigensolve (parity blocks) or SVD, and a trapezoid check
of the Fourier coefficients on the ring. Entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .configio import write_csv
from .crystal import DerivedScales
from .errors import ConfigError, RegimeError, ResolutionError

MODE_CAP = 10**6
ANALYTIC_RESIDUAL = 1e-9
OAM_RESIDUAL = 1e-12
OAM_MAX_COINCIDENCE_WIDTH = 0.1  # rad; oam_spectrum's narrow-ridge regime
# schmidt_numeric refuses a grid whose NUMERIC_MATRICES n x n float arrays
# would need more than NUMERIC_MEMORY_CAP bytes. Peak RSS (ru_maxrss) above
# the interpreter, measured at n = 3,000 on one thread with double-Gaussian
# kernels, is 1.5 matrices for the CLI's kernel on the parity split and 2.0
# for an off-centre one, built pointwise in place, on the SVD; 7 leaves room
# for kernels that hold more temporaries.
NUMERIC_MATRICES = 7
NUMERIC_MEMORY_CAP = 2 * 2**30
# entries of the buffer the structure tests of schmidt_numeric reuse per slab
STRUCTURE_SLAB = 2**15


class SchmidtMethod(Enum):
    ANALYTIC_DG = "analytic_dg"
    NUMERIC_SVD = "numeric_svd"
    OAM = "oam"


@dataclass(frozen=True)
class AzimuthalDistribution:
    """Coincidence width of the azimuthal density.

    The density is a ridge of unit height along alpha1 == alpha2; the
    conditional (coincidence) 1/e half-width is dtheta_p/theta0 and the
    unconditional (single-particle) width is the full alpha0 window pi.
    In any noncollinear configuration coincidence_width << pi (ratio > 10);
    that is a property of valid configurations, not enforced here so that
    degenerate ratios remain constructible.
    """

    coincidence_width: float

    def __post_init__(self):
        width = self.coincidence_width
        if not 0.0 < width < math.inf:
            raise ConfigError(f"coincidence_width must be finite and > 0, got {width!r}")


def azimuthal_widths(scales: DerivedScales) -> AzimuthalDistribution:
    """Widths of the azimuthal distribution for a noncollinear config."""
    if scales.theta0 <= 0.0:
        raise RegimeError("collinear regime: azimuthal ridge undefined")
    return AzimuthalDistribution(coincidence_width=scales.b)


def r_parameter(dist: AzimuthalDistribution) -> float:
    """Width-ratio entanglement parameter R = single / coincidence = pi / dac."""
    return math.pi / dist.coincidence_width


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Ordered Schmidt weights with summary measures.

    weights sum to 1 up to `residual` (truncated tail mass). For the OAM
    method each stored weight is one (l, parity) mode; `oam_l` and
    `oam_parity` label them and weights of a degenerate pair are equal.
    """

    method: SchmidtMethod
    weights: np.ndarray
    schmidt_number: float
    entropy_bits: float
    residual: float
    truncated: bool = False
    oam_l: np.ndarray | None = field(default=None, repr=False)
    oam_parity: np.ndarray | None = field(default=None, repr=False)
    closed_form_k: float | None = None

    def to_summary_dict(self) -> dict:
        out = {
            "method": self.method.value,
            "schmidt_number": self.schmidt_number,
            "entropy_bits": self.entropy_bits,
            "residual": self.residual,
            "n_modes": int(len(self.weights)),
            "truncated": self.truncated,
        }
        if self.closed_form_k is not None:
            out["closed_form_k"] = self.closed_form_k
        return out

    def export_csv(self, path: str | Path) -> None:
        if self.oam_l is not None:
            write_csv(path, ("l", "parity", "weight"),
                      [[("%d", self.oam_l), ("%s", self.oam_parity)]], [self.weights])
        else:
            write_csv(path, ("index", "weight"),
                      [[("%d", range(len(self.weights)))]], [self.weights])


def _schmidt_measures(weights: np.ndarray) -> tuple[float, float]:
    """(K, entropy in bits) of normalized weights: K = 1 / sum(w^2) and
    S = -sum(w log2 w), where zero weights add nothing to S."""
    k = 1.0 / float(np.sum(weights**2))
    w = weights[weights > 0.0]
    return k, float(-np.sum(w * np.log2(w)))


def double_gaussian_k(a: float, b: float) -> float:
    """Schmidt number (a^2 + b^2) / 2ab of the double-Gaussian state."""
    return (a * a + b * b) / (2.0 * a * b)


def schmidt_analytic(a: float, b: float) -> SchmidtSpectrum:
    """Closed-form Schmidt spectrum of the double-Gaussian state.

    lambda_n = (4ab/(a+b)^2) * ((a-b)/(a+b))^(2n), for n up to where the
    geometric tail falls below ANALYTIC_RESIDUAL; the mode count is capped
    at MODE_CAP, which sets `truncated`.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ConfigError(f"widths must be finite and > 0, got a={a!r}, b={b!r}")
    try:
        q = ((a - b) / (a + b)) ** 2
        lam0 = 4.0 * a * b / (a + b) ** 2  # == 1 - q
    except (OverflowError, ZeroDivisionError):  # (a + b)**2 out of float range
        q = lam0 = math.nan
    if not (q < 1.0 and lam0 > 0.0):  # nan, or a ratio at which q rounds to 1
        raise ConfigError(f"widths a={a!r}, b={b!r} are outside the closed form's float range")
    # residual after n_max is q^(n_max+1)
    n_max = 0 if q == 0.0 else int(math.ceil(math.log(ANALYTIC_RESIDUAL) / math.log(q))) + 1
    truncated = n_max + 1 > MODE_CAP
    n_max = min(n_max, MODE_CAP - 1)
    n = np.arange(n_max + 1)
    weights = lam0 * q**n
    residual = q ** (n_max + 1)
    # closed-form entropy of the full geometric spectrum
    if q > 0.0:
        entropy = -(math.log2(lam0) + q / (1.0 - q) * math.log2(q))
    else:
        entropy = 0.0
    return SchmidtSpectrum(
        method=SchmidtMethod.ANALYTIC_DG,
        weights=weights,
        schmidt_number=double_gaussian_k(a, b),
        entropy_bits=entropy,
        residual=float(residual),
        truncated=truncated,
    )


def schmidt_modes(n_max: int, a: float, b: float, alpha) -> np.ndarray:
    """Schmidt modes psi_0..psi_n_max at alpha, one mode per row:
    psi_n(alpha) = (2/ab)^(1/4) u_n(sqrt(2) alpha/sqrt(ab)), with u_n the
    orthonormal Hermite-Gaussian functions from one run of their stable
    three-term recurrence."""
    if n_max < 0:
        raise ConfigError("mode index must be >= 0")
    scale = math.sqrt(2.0 / (a * b))
    x = scale * np.asarray(alpha, dtype=float)
    u = np.empty((n_max + 1, *x.shape))
    u[0] = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    u_prev = np.zeros_like(x)
    for k in range(n_max):
        u[k + 1] = x * math.sqrt(2.0 / (k + 1)) * u[k] - math.sqrt(k / (k + 1.0)) * u_prev
        u_prev = u[k]
    return math.sqrt(scale) * u


def _parity_blocks(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of a symmetric centrosymmetric matrix (mat == J mat J),
    whose eigenvalues together are mat's.

    The orthogonal similarity Q = [I J; I -J]/sqrt(2) splits it exactly
    into an even block A + BJ (with the middle row and column, scaled by
    sqrt(2), when n is odd) and an odd block A - BJ, where A and B are
    the top-left and top-right m x m corners, m = n // 2 (Cantoni & Butler,
    Linear Algebra Appl. 13, 1976). Two half-size eigensolves cost about a
    quarter of one full-size one, and the blocks hold half of mat.
    """
    n = len(mat)
    m = n // 2
    corner = mat[:m, :m]
    flipped = mat[:m, n - m :][:, ::-1]
    even = np.empty((n - m, n - m))
    np.add(corner, flipped, out=even[:m, :m])
    if n % 2:
        even[:m, m] = even[m, :m] = math.sqrt(2.0) * mat[:m, m]
        even[m, m] = mat[m, m]
    return even, corner - flipped


def _symmetric_centrosymmetric(mat: np.ndarray, atol: float) -> bool:
    """Whether |mat - mat.T| <= atol and |mat - J mat J| <= atol entrywise,
    the route np.allclose(..., rtol=0, atol=atol) picks for a finite mat.

    Both differences change sign under the map that made them (transposing,
    or reversing both axes), so their largest entry is their largest
    |entry|. They are taken over slabs of rows in one buffer of about
    STRUCTURE_SLAB entries; the largest entry of all slabs is the largest
    entry of the whole difference, so the slabs pick the same route.
    """
    n = len(mat)
    rows = max(1, STRUCTURE_SLAB // n)
    buf = np.empty((rows, n))
    mirrored = mat[::-1, ::-1]
    for lo in range(0, n, rows):
        diff = buf[: min(rows, n - lo)]
        hi = lo + len(diff)
        for other in (mat[:, lo:hi].T, mirrored[lo:hi]):
            np.subtract(mat[lo:hi], other, out=diff)
            if diff.max() > atol:
                return False
    return True


def schmidt_numeric(
    kernel, lo: float, hi: float, n: int, feature_width: float | None = None
) -> SchmidtSpectrum:
    """Quadrature oracle: Schmidt spectrum of a two-argument kernel on [lo, hi]^2.

    The midpoint-rule weight h, which would make the singular values
    grid-independent, cancels in the normalised weights, so the n x n
    matrix holds the bare kernel values and h sets only the tolerance. If
    feature_width is given, the grid must put at least 8 points across
    it. A matrix whose n x n working set would exceed NUMERIC_MEMORY_CAP
    bytes is refused (ConfigError) before anything is allocated.

    The weights are the squared singular values, found by one of two routes:
    - symmetric and centrosymmetric (a kernel with K(x, y) = K(y, x) =
      K(-x, -y) on a window symmetric about 0, as the double Gaussian on
      [-4a, 4a]): eigvalsh on the even and odd parity blocks, each of
      half the size;
    - any other matrix: the singular values of a dense SVD.
    Both structure tests allow the weighted matrix h * mat an absolute
    deviation of 1e-13 max(1, max|h * mat|) and no relative one. A kernel
    with a nan or infinite value on the grid is refused (ConfigError).
    """
    if hi <= lo:
        raise ConfigError("need hi > lo")
    h = (hi - lo) / n
    if feature_width is not None and feature_width / h < 8.0:
        required = int(math.ceil(8.0 * (hi - lo) / feature_width))
        raise ResolutionError(
            f"grid of {n} points puts only {feature_width / h:.2f} points "
            f"across the narrowest feature; need at least {required}",
            required_points=required,
        )
    needed = NUMERIC_MATRICES * 8 * n * n
    if needed > NUMERIC_MEMORY_CAP:
        raise ConfigError(
            f"grid of {n} points needs {needed} bytes for {NUMERIC_MATRICES} "
            f"{n} x {n} matrices, more than the {NUMERIC_MEMORY_CAP} byte cap"
        )
    x = lo + (np.arange(n) + 0.5) * h
    mat = np.asarray(kernel(x[:, None], x[None, :]), dtype=float)
    top, bottom = mat.max(), mat.min()
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise ConfigError("kernel is not finite on the grid")
    atol = 1e-13 * max(1.0, h * top, -h * bottom) / h
    if _symmetric_centrosymmetric(mat, atol):
        blocks = _parity_blocks(mat)
        del mat  # the blocks are all the eigensolves need
        s = np.abs(np.concatenate([np.linalg.eigvalsh(block) for block in blocks]))
    else:
        s = np.linalg.svd(mat, compute_uv=False)
    weights = s * s
    weights = np.sort(weights)[::-1]
    weights /= weights.sum()
    k, entropy = _schmidt_measures(weights)
    return SchmidtSpectrum(
        method=SchmidtMethod.NUMERIC_SVD,
        weights=weights,
        schmidt_number=k,
        entropy_bits=entropy,
        residual=0.0,
    )


def oam_closed_form_k(dist: AzimuthalDistribution) -> float:
    """The published closed-form OAM Schmidt number 2 sqrt(2 pi) theta0 w /
    lambda_p, through the coincidence width: theta0 w / lambda_p = 1 / (pi dac)."""
    return 2.0 * math.sqrt(2.0 * math.pi) * (1.0 / (math.pi * dist.coincidence_width))


def _narrow_ridge(dist: AzimuthalDistribution) -> float:
    """The coincidence width dac, refused (RegimeError) outside the
    narrow-ridge regime dac < OAM_MAX_COINCIDENCE_WIDTH."""
    dac = dist.coincidence_width
    if dac >= OAM_MAX_COINCIDENCE_WIDTH:
        raise RegimeError(
            f"coincidence width {dac:g} rad outside the narrow-ridge regime "
            f"(need < {OAM_MAX_COINCIDENCE_WIDTH:g})"
        )
    return dac


def oam_spectrum(dist: AzimuthalDistribution) -> SchmidtSpectrum:
    """OAM Schmidt spectrum of the azimuthal Gaussian ridge.

    Stored modes are (0, cos) and (l, cos)/(l, sin) for l >= 1 with equal
    weights proportional to exp(-l^2 dac^2), normalized to unit total so
    l = 0 is not double-counted. K is 1/sum(w^2) over the stored modes and
    evaluates to sqrt(2 pi)/dac. That is the Schmidt number of the
    circulant kernel exp(-(a1-a2)^2 / (2 dac^2)) on the full 2 pi ring,
    whose eigenvalues are its DFT; on a pi ring the same kernel gives half
    of it. closed_form_k carries the published closed form
    2 sqrt(2 pi) theta0 w / lambda_p for comparison, which equals 2/pi of K.
    """
    dac = _narrow_ridge(dist)
    # tail weight below OAM_RESIDUAL relative to the l=0 weight
    l_max = int(math.ceil(math.sqrt(-math.log(OAM_RESIDUAL)) / dac))
    truncated = 2 * l_max + 1 > MODE_CAP
    l_max = min(l_max, (MODE_CAP - 1) // 2)
    ls = np.concatenate(([0], np.repeat(np.arange(1, l_max + 1), 2)))
    parity = np.concatenate((["cos"], np.tile(["cos", "sin"], l_max)))
    raw = np.exp(-(ls.astype(float) ** 2) * dac * dac)
    total = raw.sum()
    # relative tail mass of the untruncated sum, Gaussian-integral estimate
    residual = float(math.sqrt(math.pi) / dac * math.erfc(l_max * dac) / total)
    weights = raw / total
    k, entropy = _schmidt_measures(weights)
    return SchmidtSpectrum(
        method=SchmidtMethod.OAM,
        weights=weights,
        schmidt_number=k,
        entropy_bits=entropy,
        residual=residual,
        truncated=truncated,
        oam_l=ls,
        oam_parity=parity,
        closed_form_k=oam_closed_form_k(dist),
    )


def coefficient_check(dist: AzimuthalDistribution, l_max: int) -> float:
    """Max relative deviation of Fourier coefficients of the azimuthal
    Gaussian from the closed form exp(-l^2 dac^2 / 2), over l = 0..l_max.

    Each is the trapezoid rule on |delta| <= 10 dac with the step h = 2 pi / n
    of an n-point ring, n = ceil(l_max + 10 / dac), exponentially convergent
    (Trefethen & Weideman, SIAM Rev. 56, 385, 2014): the coefficient at
    n - l, aliased onto l, is below exp(-50) c_0. Only the ~10 dac / h
    samples per side are summed, with the phase l j taken mod n, so the
    working set is O(l_max) whatever dac is. Broad ridges are refused.
    """
    if l_max < 0:
        raise ConfigError(f"l_max must be >= 0, got {l_max}")
    dac = _narrow_ridge(dist)
    n = math.ceil(l_max + 10.0 / dac)
    h = 2.0 * math.pi / n
    ls = np.arange(l_max + 1)
    c_num = np.ones(l_max + 1)
    for j in range(1, math.floor(10.0 * dac / h) + 1):
        c_num += 2.0 * math.exp(-((j * h) ** 2) / (2.0 * dac * dac)) * np.cos(ls * j % n * h)
    c_closed = math.sqrt(2.0 * math.pi) * dac * np.exp(-((ls * dac) ** 2) / 2.0)
    return float(np.max(np.abs(h * c_num - c_closed) / c_closed[0]))


def azimuthal_density(dist: AzimuthalDistribution, alpha1, alpha2):
    """Peak-normalized azimuthal probability density, a unit-height ridge
    along alpha1 == alpha2."""
    d = np.asarray(alpha1, float) - np.asarray(alpha2, float)
    return np.exp(-(d * d) / dist.coincidence_width**2)
