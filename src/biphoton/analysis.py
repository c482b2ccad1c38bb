"""Azimuthal entanglement quantified three ways.

Width ratio R, the analytic double-Gaussian Schmidt spectrum, and the OAM
spectrum, plus two oracles used to cross-validate the closed forms: a
discretized-kernel eigensolve/SVD and a trapezoid check of the Fourier
coefficients. Entropies are in bits.
"""

from __future__ import annotations

import math
import warnings
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
# schmidt_numeric refuses a grid whose NUMERIC_MATRICES n x n float arrays
# would need more than NUMERIC_MEMORY_CAP bytes. 7 is its most expensive
# path, the SVD: the matrix, both factors, LAPACK's copy and workspace
# (about 3 matrices at peak on the eigenvalue paths).
NUMERIC_MATRICES = 7
NUMERIC_MEMORY_CAP = 2 * 2**30


class SchmidtMethod(Enum):
    ANALYTIC_DG = "analytic_dg"
    NUMERIC_SVD = "numeric_svd"
    OAM = "oam"


@dataclass(frozen=True)
class AzimuthalDistribution:
    """Coincidence and single-particle widths of the azimuthal density.

    The density is a ridge of unit height along alpha1 == alpha2; the
    conditional (coincidence) 1/e half-width is dtheta_p/theta0 and the
    unconditional (single-particle) width is the full alpha0 window pi.
    In any noncollinear configuration coincidence_width << pi (ratio > 10);
    that is a property of valid configurations, not enforced here so that
    degenerate ratios remain constructible.
    """

    coincidence_width: float
    single_width: float = math.pi

    def __post_init__(self):
        if self.coincidence_width <= 0.0:
            raise ConfigError("coincidence width must be > 0")


def azimuthal_widths(scales: DerivedScales) -> AzimuthalDistribution:
    """Widths of the azimuthal distribution for a noncollinear config."""
    if scales.theta0 <= 0.0:
        raise RegimeError("collinear regime: azimuthal ridge undefined")
    return AzimuthalDistribution(coincidence_width=scales.b)


def r_parameter(dist: AzimuthalDistribution) -> float:
    """Width-ratio entanglement parameter R = single / coincidence."""
    return dist.single_width / dist.coincidence_width


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

    def recompute_k(self) -> float:
        """1 / sum(weights^2) from the stored weights only."""
        return 1.0 / float(np.sum(self.weights**2))

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
            write_csv(path, ("l", "parity", "weight"), ("%d", "%s", "%.12g"),
                      [(self.oam_l, self.oam_parity, self.weights)])
        else:
            write_csv(path, ("index", "weight"), ("%d", "%.12g"),
                      [(range(len(self.weights)), self.weights)])


def _entropy_bits(weights: np.ndarray) -> float:
    w = weights[weights > 0.0]
    return float(-np.sum(w * np.log2(w)))


def double_gaussian_k(a: float, b: float) -> float:
    """Schmidt number (a^2 + b^2) / 2ab of the double-Gaussian state."""
    return (a * a + b * b) / (2.0 * a * b)


def schmidt_analytic(a: float, b: float, n_max: int | None = None) -> SchmidtSpectrum:
    """Closed-form Schmidt spectrum of the double-Gaussian state.

    lambda_n = (4ab/(a+b)^2) * ((a-b)/(a+b))^(2n). n_max is auto-extended
    until the geometric tail is below 1e-9 unless given; the mode count is
    capped at 1e6 with a truncation warning.
    """
    if a <= 0.0 or b <= 0.0:
        raise ConfigError(f"widths must be positive, got a={a!r}, b={b!r}")
    q = ((a - b) / (a + b)) ** 2
    lam0 = 4.0 * a * b / (a + b) ** 2  # == 1 - q
    truncated = False
    if n_max is None:
        if q == 0.0:
            n_max = 0
        else:
            # residual after n_max is q^(n_max+1)
            n_max = int(math.ceil(math.log(ANALYTIC_RESIDUAL) / math.log(q))) + 1
        if n_max + 1 > MODE_CAP:
            warnings.warn(
                f"analytic spectrum truncated at {MODE_CAP} modes "
                f"(needed {n_max + 1} for tail < {ANALYTIC_RESIDUAL:g})",
                stacklevel=2,
            )
            n_max = MODE_CAP - 1
            truncated = True
    elif n_max < 0:
        raise ConfigError("n_max must be >= 0")
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


def hermite_gaussian(n: int, x):
    """Orthonormal Hermite-Gaussian function u_n(x), stable three-term
    recurrence in the normalized functions."""
    x = np.asarray(x, dtype=float)
    u_prev = np.zeros_like(x)
    u = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    for k in range(n):
        u, u_prev = (
            x * math.sqrt(2.0 / (k + 1)) * u - math.sqrt(k / (k + 1.0)) * u_prev,
            u,
        )
    return u


def schmidt_mode(n: int, a: float, b: float, alpha):
    """Schmidt mode psi_n(alpha) = (2/ab)^(1/4) u_n(sqrt(2) alpha/sqrt(ab))."""
    if n < 0:
        raise ConfigError("mode index must be >= 0")
    scale = math.sqrt(2.0 / (a * b))
    return math.sqrt(scale) * hermite_gaussian(n, scale * np.asarray(alpha, float))


def _parity_eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric centrosymmetric matrix (mat == J mat J).

    The orthogonal similarity Q = [I J; I -J]/sqrt(2) splits it exactly
    into an even block A + BJ (with the middle row and column, scaled by
    sqrt(2), when n is odd) and an odd block A - BJ, where A and B are
    the top-left and top-right m x m corners, m = n // 2 (Cantoni & Butler,
    Linear Algebra Appl. 13, 1976). Two half-size eigensolves cost about a
    quarter of one full-size one.
    """
    n = len(mat)
    m = n // 2
    corner = mat[:m, :m]
    flipped = mat[:m, n - m :][:, ::-1]
    even = corner + flipped
    odd = corner - flipped
    if n % 2:
        middle = math.sqrt(2.0) * mat[:m, m]
        even = np.block([[even, middle[:, None]], [middle[None, :], mat[m, m]]])
    return np.concatenate((np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)))


def schmidt_numeric(
    kernel,
    lo: float,
    hi: float,
    n: int,
    feature_width: float | None = None,
    return_modes: bool = False,
):
    """Quadrature oracle: Schmidt spectrum of a two-argument kernel on [lo, hi]^2.

    Midpoint-rule quadrature weights are folded into the n x n matrix so
    the singular values are grid-independent once converged. If
    feature_width is given, the grid must put at least 8 points across
    it. A matrix whose n x n working set would exceed NUMERIC_MEMORY_CAP
    bytes is refused (ConfigError) before anything is allocated.

    The weights are the squared singular values, found by the cheapest
    route the matrix allows:
    - symmetric and centrosymmetric (a kernel with K(x, y) = K(y, x) =
      K(-x, -y) on a window symmetric about 0, as the double Gaussian on
      [-4a, 4a]): eigvalsh on the even and odd parity blocks, each of
      half the size;
    - symmetric only: dense eigvalsh;
    - otherwise, or with return_modes=True: dense SVD.

    Returns the SchmidtSpectrum, or (spectrum, left_modes, right_modes)
    with return_modes=True (mode columns include the 1/sqrt(h) quadrature
    factor so they are orthonormal in L2).
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
    mat = np.asarray(kernel(x[:, None], x[None, :]), dtype=float) * h
    atol = 1e-13 * max(1.0, np.abs(mat).max())
    symmetric = np.allclose(mat, mat.T, atol=atol)
    if return_modes or not symmetric:
        u, s, vt = np.linalg.svd(mat)
    elif np.allclose(mat, mat[::-1, ::-1], atol=atol):
        s = np.abs(_parity_eigvalsh(mat))
    else:
        s = np.abs(np.linalg.eigvalsh(mat))
    weights = s * s
    weights = np.sort(weights)[::-1]
    weights /= weights.sum()
    spectrum = SchmidtSpectrum(
        method=SchmidtMethod.NUMERIC_SVD,
        weights=weights,
        schmidt_number=1.0 / float(np.sum(weights**2)),
        entropy_bits=_entropy_bits(weights),
        residual=0.0,
    )
    if return_modes:
        return spectrum, u / math.sqrt(h), vt / math.sqrt(h)
    return spectrum


def oam_closed_form_k(theta0_w_over_lambda: float) -> float:
    """The closed-form OAM Schmidt number 2 sqrt(2 pi) theta0 w / lambda_p."""
    return 2.0 * math.sqrt(2.0 * math.pi) * theta0_w_over_lambda


def oam_spectrum(
    dist: AzimuthalDistribution, l_max: int | None = None
) -> SchmidtSpectrum:
    """OAM Schmidt spectrum of the azimuthal Gaussian ridge.

    Stored modes are (0, cos) and (l, cos)/(l, sin) for l >= 1 with equal
    weights proportional to exp(-l^2 dac^2), normalized to unit total so
    l = 0 is not double-counted. K is 1/sum(w^2) over the stored modes and
    evaluates to sqrt(2 pi)/dac. That is the Schmidt number of the
    circulant kernel exp(-(a1-a2)^2 / (2 dac^2)) on the full 2 pi ring,
    whose eigenvalues are its DFT; on a pi ring the same kernel gives half
    of it. closed_form_k carries the published closed form
    2 sqrt(2 pi) theta0 w / lambda_p for comparison, which equals 2/pi of K.
    The stored (l, parity) labels have no orthonormal modes behind them on
    (-pi/2, pi/2]: oam_mode restricted there is not an orthonormal set
    (see oam_mode_gram).
    """
    dac = dist.coincidence_width
    if dac >= 0.1:
        raise RegimeError(
            f"coincidence width {dac:g} rad outside the narrow-ridge regime "
            "(need < 0.1)"
        )
    if l_max is None:
        # tail weight below OAM_RESIDUAL relative to the l=0 weight
        l_max = int(math.ceil(math.sqrt(-math.log(OAM_RESIDUAL)) / dac))
    truncated = False
    if 2 * l_max + 1 > MODE_CAP:
        warnings.warn(
            f"OAM spectrum truncated at {MODE_CAP} modes", stacklevel=2
        )
        l_max = (MODE_CAP - 1) // 2
        truncated = True
    ls = np.concatenate(([0], np.repeat(np.arange(1, l_max + 1), 2)))
    parity = np.array(["cos"] + ["cos", "sin"] * l_max)
    raw = np.exp(-(ls.astype(float) ** 2) * dac * dac)
    total = raw.sum()
    # relative tail mass of the untruncated sum, Gaussian-integral estimate
    residual = float(math.sqrt(math.pi) / dac * math.erfc(l_max * dac) / total)
    weights = raw / total
    # closed form expressed through the coincidence width:
    # theta0 w / lambda_p = 1 / (pi * dac)
    closed = oam_closed_form_k(1.0 / (math.pi * dac))
    return SchmidtSpectrum(
        method=SchmidtMethod.OAM,
        weights=weights,
        schmidt_number=1.0 / float(np.sum(weights**2)),
        entropy_bits=_entropy_bits(weights),
        residual=residual,
        truncated=truncated,
        oam_l=ls,
        oam_parity=parity,
        closed_form_k=closed,
    )


def oam_mode(l: int, parity: str, alpha):
    """OAM Schmidt mode sqrt(2/pi) cos(l alpha) or sin(l alpha), |alpha| <= pi/2."""
    if l < 0:
        raise ConfigError("l must be >= 0")
    if parity not in ("cos", "sin"):
        raise ConfigError(f"parity must be 'cos' or 'sin', got {parity!r}")
    alpha = np.asarray(alpha, dtype=float)
    if np.any(np.abs(alpha) > math.pi / 2 + 1e-15):
        raise ConfigError("alpha outside [-pi/2, pi/2]")
    fn = np.cos if parity == "cos" else np.sin
    return math.sqrt(2.0 / math.pi) * fn(l * alpha)


def oam_mode_gram(l_max: int, n_quad: int = 4001) -> np.ndarray:
    """Gram matrix of the cos/sin OAM modes on [-pi/2, pi/2].

    The modes are exactly orthonormal only within same-parity-l subsets;
    this reports the actual overlaps instead of asserting orthonormality.
    Row/column order matches oam_spectrum's stored modes.
    """
    alpha = np.linspace(-math.pi / 2, math.pi / 2, n_quad)
    modes = [oam_mode(0, "cos", alpha)]
    for l in range(1, l_max + 1):
        modes.append(oam_mode(l, "cos", alpha))
        modes.append(oam_mode(l, "sin", alpha))
    m = np.vstack(modes)
    return np.trapezoid(m[:, None, :] * m[None, :, :], alpha, axis=-1)


def _trapezoid_cosines(f: np.ndarray, x: np.ndarray, l_max: int) -> np.ndarray:
    """np.trapezoid(f * cos(l x), x) for l = 0..l_max, all at once.

    Blocked exponentials: with l = g B + j, B = isqrt(l_max) + 1,
    exp(i l x) = exp(i g B x) exp(i j x), so two tables of at most
    B x len(x) exponentials and one matrix product with the
    trapezoid-weighted f give every coefficient as a real part. The
    weights come from np.diff(x), as np.trapezoid's do.
    """
    steps = np.diff(x)
    weights = np.zeros(len(x))
    weights[:-1] += steps / 2.0
    weights[1:] += steps / 2.0
    block = math.isqrt(l_max) + 1
    giants = -(-(l_max + 1) // block)
    baby = np.exp(1j * np.outer(np.arange(block), x))
    giant = np.exp(1j * np.outer(block * np.arange(giants), x))
    return ((giant * (weights * f)) @ baby.T).real.ravel()[: l_max + 1]


def coefficient_check(dist: AzimuthalDistribution, l_max: int, n_quad: int = 40001) -> float:
    """Max relative deviation of Fourier coefficients of the azimuthal
    Gaussian from the closed form exp(-l^2 dac^2 / 2), over l = 0..l_max.

    Each coefficient is the n_quad-point trapezoid rule on |delta| <= 10 dac;
    all l = 0..l_max come from one product of blocked exponentials
    (_trapezoid_cosines) instead of one cosine table per l.
    """
    dac = dist.coincidence_width
    half = 10.0 * dac
    delta = np.linspace(-half, half, n_quad)
    envelope = np.exp(-(delta**2) / (2.0 * dac * dac))
    c_num = _trapezoid_cosines(envelope, delta, l_max)
    ls = np.arange(l_max + 1)
    c_closed = math.sqrt(2.0 * math.pi) * dac * np.exp(-(ls.astype(float) ** 2) * dac * dac / 2.0)
    return float(np.max(np.abs(c_num - c_closed) / c_closed[0]))


def azimuthal_density(dist: AzimuthalDistribution, alpha1, alpha2):
    """Peak-normalized azimuthal probability density, a unit-height ridge
    along alpha1 == alpha2."""
    d = np.asarray(alpha1, float) - np.asarray(alpha2, float)
    return np.exp(-(d * d) / dist.coincidence_width**2)
