"""Biphoton angular wave function and its Gaussian model.

Angles follow the diametric convention: alpha1 is measured from +x and
alpha2 from -x, so a back-to-back pair has alpha1 == alpha2 and the pump
transverse momentum is proportional to the *difference* of the projected
unit vectors. All amplitudes are peak-normalized (value 1 on the cone at
equal azimuths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .configio import write_csv
from .crystal import DerivedScales, ExperimentConfig
from .errors import ConfigError, DegenerateGeometryError, RegimeError

# Gaussian replacement constant for sinc^2(x): the half-maximum match
# ln 2 / x_h^2 with sinc^2(x_h) = 1/2, not a least-squares fit (that gives
# 0.3814 on |x| <= pi); the published alternative 0.395 is selectable.
SINC_GAUSS_HALF_MAX = 0.359
SINC_GAUSS_PUBLISHED = 0.395

CLAMP_TOL = 1e-12  # |cos alpha_p| may exceed 1 by rounding; clamp within this

# np.exp rounds to 0.0 below about -745.13 (half the smallest subnormal),
# and such arguments leave its vectorized path, at about ten times the cost
# per entry; exp_inplace sets them through a mask. Arrays smaller than
# EXP_MASK_MIN_SIZE skip the test: its reduction alone costs about as much
# as exp on a thousand entries.
EXP_UNDERFLOW = -746.0
EXP_MASK_MIN_SIZE = 1024


class GeometryMode(Enum):
    EXACT = "exact"
    SMALL_ANGLE = "small_angle"


class AzimuthMode(Enum):
    EXACT = "exact"
    LINEARIZED = "linearized"


class AmplitudeKind(Enum):
    FULL = "full"
    NWO = "nwo"
    DOUBLE_GAUSSIAN = "double_gaussian"


@dataclass(frozen=True)
class AngularPair:
    """Spherical angles of the two photons in free space after the crystal.

    theta1/theta2 are polar angles in [0, pi]; alpha1 is azimuthal from the
    +x axis, alpha2 from the -x axis (diametric convention). The physical
    state lives on alpha0 = (alpha1+alpha2)/2 in (-pi/2, pi/2]; that range
    is a domain convention, not a formula restriction, because particle
    transposition must be accompanied by shifting both alphas by pi and
    therefore leaves the window. Arrays are accepted elementwise.
    """

    theta1: float | np.ndarray
    theta2: float | np.ndarray
    alpha1: float | np.ndarray
    alpha2: float | np.ndarray

    def __post_init__(self):
        _check_polar("theta1", self.theta1)
        _check_polar("theta2", self.theta2)

    @property
    def alpha0(self):
        return 0.5 * (np.asarray(self.alpha1) + np.asarray(self.alpha2))

    @property
    def alpha_diff(self):
        return np.asarray(self.alpha1) - np.asarray(self.alpha2)

    def transposed(self) -> "AngularPair":
        """Particle transposition with the compensating pi shift of both
        azimuths, the symmetry operation of the diametric convention."""
        return AngularPair(
            theta1=self.theta2,
            theta2=self.theta1,
            alpha1=np.asarray(self.alpha2) + math.pi,
            alpha2=np.asarray(self.alpha1) + math.pi,
        )


def _check_polar(name: str, theta) -> None:
    th = np.asarray(theta, dtype=float)
    if th.size == 0:
        return
    lo, hi = (th.min(), th.max()) if th.ndim else (float(th),) * 2
    # a nan makes the minimum and maximum nan, which fails both comparisons
    if not (lo >= 0.0 and hi <= math.pi):
        raise ConfigError(f"{name} must lie in [0, pi]")


@dataclass(frozen=True)
class AmplitudeModel:
    """Amplitude selector bound to one set of derived scales.

    FULL and DOUBLE_GAUSSIAN share the same pump Gaussian factor; NWO is
    FULL with the walk-off slope forced to zero.
    """

    kind: AmplitudeKind
    scales: DerivedScales

    def without_walkoff(self) -> "AmplitudeModel":
        return replace(self, scales=replace(self.scales, zeta=0.0))


def transverse_sum_diff(
    pair: AngularPair, lambda_p: float, mode: GeometryMode = GeometryMode.EXACT
):
    """Squared magnitudes (|k1+k2|^2, |k1-k2|^2) of the transverse wave
    vectors, um^-2.

    EXACT uses the spherical-angle expression; SMALL_ANGLE the leading
    order in the deviations from the cone, with the cone angle taken from
    the polar angles themselves ((theta1+theta2)/2 plays theta0's role in
    the azimuthal term).
    """
    th1 = np.asarray(pair.theta1, dtype=float)
    th2 = np.asarray(pair.theta2, dtype=float)
    dal = pair.alpha_diff
    pref = math.pi**2 / lambda_p**2
    if mode is GeometryMode.EXACT:
        s1, s2 = np.sin(th1), np.sin(th2)
        cross = 2.0 * s1 * s2 * np.cos(dal)
        base = s1 * s1 + s2 * s2
        sum_sq = pref * (base - cross)
        diff_sq = pref * (base + cross)
    else:
        t0 = 0.5 * (th1 + th2)
        az = t0 * t0 * dal * dal
        sum_sq = pref * ((th1 - th2) ** 2 + az)
        diff_sq = pref * ((th1 + th2) ** 2 - az)
    return sum_sq, diff_sq


def pump_polar_angle(pair: AngularPair, lambda_p: float, n_p: float):
    """Pump polar angle inside the crystal from tangential-momentum
    continuity: phi_p = (lambda_p / 2 pi n_p) |k1+k2|."""
    sum_sq, _ = transverse_sum_diff(pair, lambda_p, GeometryMode.EXACT)
    return lambda_p / (2.0 * math.pi * n_p) * np.sqrt(sum_sq)


def pump_azimuth_cos(
    pair: AngularPair,
    mode: AzimuthMode = AzimuthMode.EXACT,
    theta0: float | None = None,
):
    """cos(alpha_p) of the pump transverse momentum, clamped to [-1, 1].

    EXACT projects the momentum-conservation identity; LINEARIZED keeps
    the leading order in (theta1-theta2) and (alpha1-alpha2) and needs the
    cone angle. Raises DegenerateGeometryError for an exactly back-to-back
    pair (zero denominator); amplitude evaluation never hits this because
    the multiplying phi_p vanishes there as well.
    """
    th1 = np.asarray(pair.theta1, dtype=float)
    th2 = np.asarray(pair.theta2, dtype=float)
    a1 = np.asarray(pair.alpha1, dtype=float)
    a2 = np.asarray(pair.alpha2, dtype=float)
    if mode is AzimuthMode.EXACT:
        s1, s2 = np.sin(th1), np.sin(th2)
        num = s1 * np.cos(a1) - s2 * np.cos(a2)
        den_sq = s1 * s1 + s2 * s2 - 2.0 * s1 * s2 * np.cos(a1 - a2)
    else:
        if theta0 is None:
            raise ConfigError("LINEARIZED mode needs the cone angle theta0")
        al0 = 0.5 * (a1 + a2)
        dal = a1 - a2
        num = (th1 - th2) * np.cos(al0) - theta0 * np.sin(al0) * dal
        den_sq = (th1 - th2) ** 2 + theta0**2 * dal**2
    if np.any(den_sq <= 0.0):
        raise DegenerateGeometryError(
            "back-to-back pair: pump transverse momentum is zero, "
            "its azimuth is undefined"
        )
    out = num / np.sqrt(den_sq)
    if np.any(np.abs(out) > 1.0 + CLAMP_TOL):
        raise DegenerateGeometryError(
            f"cos(alpha_p) = {float(np.max(np.abs(out))):.6g} exceeds 1 beyond "
            "rounding tolerance"
        )
    return np.clip(out, -1.0, 1.0)


def _pump_and_sinc_terms(pair: AngularPair, scales: DerivedScales, walkoff: bool):
    """(g, x): the pump Gaussian is exp(-g), the sinc argument x is L Delta / 2
    of the linearized phase mismatch Delta, expressed through dtheta_L."""
    th1 = np.asarray(pair.theta1, dtype=float)
    th2 = np.asarray(pair.theta2, dtype=float)
    dth = th1 - th2
    dal = pair.alpha_diff
    t0 = scales.theta0
    g = (dth**2 + t0 * t0 * dal**2) / (2.0 * scales.dtheta_p**2)
    core = t0 * (th1 + th2 - 2.0 * t0)
    if walkoff:
        al0 = pair.alpha0
        core = core - (scales.n_o / scales.n_p0) * scales.zeta * (
            np.cos(al0) * dth - t0 * np.sin(al0) * dal
        )
    return g, core / (2.0 * scales.dtheta_L)


def exp_inplace(x):
    """np.exp(x, out=x) bit for bit for a float array x, which it returns;
    a scalar, which cannot be written, gets np.exp(x).

    In an array of at least EXP_MASK_MIN_SIZE entries, those
    <= EXP_UNDERFLOW, whose exp is 0.0, are set through a mask instead of
    going through exp. When the minimum lies above the threshold this is
    np.exp after one reduction.
    """
    if not isinstance(x, np.ndarray):
        return np.exp(x)
    if x.size >= EXP_MASK_MIN_SIZE and not x.min() > EXP_UNDERFLOW:  # or is nan
        # exp(0) in their place; np.exp(..., where=) would not do, as it
        # takes another loop, with other last bits, on some strided views
        under = x <= EXP_UNDERFLOW
        np.putmask(x, under, 0.0)
        np.exp(x, out=x)
        np.putmask(x, under, 0.0)
        return x
    return np.exp(x, out=x)


def amplitude(model: AmplitudeModel, pair: AngularPair):
    """Real, peak-normalized biphoton amplitude.

    FULL: pump Gaussian times sinc of the walk-off-inclusive mismatch;
    NWO: same with zeta = 0; DOUBLE_GAUSSIAN: square root of the modeled
    density (so that density == amplitude^2 for every kind).
    """
    if model.kind is AmplitudeKind.DOUBLE_GAUSSIAN:
        return np.sqrt(probability_density(model, pair))
    walkoff = model.kind is AmplitudeKind.FULL
    g, x = _pump_and_sinc_terms(pair, model.scales, walkoff)
    return np.exp(-g) * np.sinc(x / math.pi)


def probability_density(model: AmplitudeModel, pair: AngularPair):
    """Peak-normalized probability density.

    DOUBLE_GAUSSIAN replaces sinc^2 by exp(-c x^2) with the half-maximum
    constant c = SINC_GAUSS_HALF_MAX (0.359); other kinds square the
    amplitude.
    """
    if model.kind is not AmplitudeKind.DOUBLE_GAUSSIAN:
        return amplitude(model, pair) ** 2
    # exp(-2 g) exp(-c x^2), each factor computed in its own buffer
    density, x = _pump_and_sinc_terms(pair, model.scales, walkoff=True)
    density *= -2.0
    density = exp_inplace(density)
    sinc_gauss = -SINC_GAUSS_HALF_MAX * x
    sinc_gauss *= x
    density *= exp_inplace(sinc_gauss)
    return density


@dataclass(frozen=True)
class ValidityReport:
    """Dimensionless validity diagnostics of the linearized amplitude. Each
    flag warns once its ratio reaches WARN_THRESHOLD; the length threshold
    is flagged by its ratio to L, which is the linearization ratio."""

    diffraction_ratio: float  # L / (8 n_o L_D)
    linearization_ratio: float  # n_o lambda_p / (pi L theta0^2)
    length_threshold_um: float  # n_o lambda_p / (pi theta0^2)

    WARN_THRESHOLD = 0.1

    def to_dict(self) -> dict:
        def flag(ratio: float) -> str:
            return "pass" if ratio < self.WARN_THRESHOLD else "warn"

        return {
            "L_over_8_no_LD": self.diffraction_ratio,
            "no_lambda_over_pi_L_theta0_sq": self.linearization_ratio,
            "L_threshold_um": self.length_threshold_um,
            "flags": {
                "L_over_8_no_LD": flag(self.diffraction_ratio),
                "no_lambda_over_pi_L_theta0_sq": flag(self.linearization_ratio),
                "L_threshold_um": flag(self.linearization_ratio),
            },
        }


def validity_report(config: ExperimentConfig, scales: DerivedScales) -> ValidityReport:
    """Check the approximations behind the linearized amplitude.

    Raises:
        RegimeError: if theta0 == 0 (collinear regime, linearization
            impossible).
    """
    if scales.theta0 == 0.0:
        raise RegimeError("collinear regime: linearization impossible")
    rayleigh = math.pi * config.w**2 / config.lambda_p
    threshold = scales.n_o * config.lambda_p / (math.pi * scales.theta0**2)
    return ValidityReport(
        diffraction_ratio=config.L / (8.0 * scales.n_o * rayleigh),
        linearization_ratio=threshold / config.L,
        length_threshold_um=threshold,
    )


def export_grid_csv(
    path: str | Path,
    model: AmplitudeModel,
    theta: np.ndarray,
    dalpha: np.ndarray,
    alpha0: float = 0.0,
) -> None:
    """Write the density over a (theta1, theta2, alpha1-alpha2) grid as CSV
    with columns theta1,theta2,alpha1,alpha2,value (radians, peak-normalized).

    The density is evaluated one (theta1, theta2) pair at a time. theta is
    checked before the file is opened, so a bad one leaves no file behind.
    """
    _check_polar("theta", theta)
    a1 = alpha0 + 0.5 * dalpha
    a2 = alpha0 - 0.5 * dalpha
    rows = (probability_density(model, AngularPair(t1, t2, a1, a2))
            for t1 in theta for t2 in theta)

    write_csv(path, ("theta1", "theta2", "alpha1", "alpha2", "value"),
              [[("%.12g", theta)], [("%.12g", theta)], [("%.12g", a1), ("%.12g", a2)]],
              rows)
