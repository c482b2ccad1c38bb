"""Dispersion and birefringence of a negative uniaxial crystal.

Everything downstream (phase mismatch, cone geometry, entanglement scales)
is driven by three numbers per configuration: the ordinary index at the
down-converted wavelength, the on-axis pump index, and the walk-off slope.
This module computes them from a Sellmeier dataset plus the experiment
geometry. Units are micrometers and radians throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigError, RegimeError, WavelengthRangeError

_ROOT_TOL = 1e-12  # root-finder x-tolerance, rad
_PRESCAN_POINTS = 200

# Accepted pump waist and crystal length, um: admits the plane-wave limit
# (w = 1e12 um), and no derived scale overflows or rounds to zero within it.
LENGTH_RANGE_UM = (1e-3, 1e13)


@dataclass(frozen=True)
class SellmeierSet:
    """Dispersion coefficients of a uniaxial crystal.

    Index model: n^2 = A + B / (lambda^2 - C) - D * lambda^2 with lambda
    in micrometers, one (A, B, C, D) tuple per polarization. Immutable
    after load; a negative uniaxial crystal must satisfy n_e < n_o over
    the declared validity range.
    """

    name: str
    ordinary: tuple[float, float, float, float]
    extraordinary: tuple[float, float, float, float]
    valid_range_um: tuple[float, float]
    provenance: str = ""

    def _check_range(self, lam: float) -> None:
        lo, hi = self.valid_range_um
        if not (lo <= lam <= hi):
            raise WavelengthRangeError(lam, lo, hi)

    def _index(self, lam: float, coeffs) -> float:
        a, b, c, d = coeffs
        return math.sqrt(a + b / (lam * lam - c) - d * lam * lam)


def ordinary_index(crystal: SellmeierSet, lam: float) -> float:
    """Ordinary refractive index n_o(lambda), lambda in um."""
    crystal._check_range(lam)
    return crystal._index(lam, crystal.ordinary)


def extraordinary_index(crystal: SellmeierSet, lam: float) -> float:
    """Principal extraordinary index n_e(lambda) (propagation along the
    minor axis), lambda in um."""
    crystal._check_range(lam)
    return crystal._index(lam, crystal.extraordinary)


def pump_index(
    crystal: SellmeierSet,
    lambda_p: float,
    phi_p: float,
    alpha_p: float,
    phi0: float,
) -> float:
    """Anisotropic pump refractive index, no small-angle approximation.

    Args:
        lambda_p: pump wavelength, um.
        phi_p: pump polar angle inside the crystal, rad.
        alpha_p: pump azimuthal angle, rad.
        phi0: angle between the optic axis and the mean propagation
            direction (z-axis), rad.
    """
    for name, val in (("phi_p", phi_p), ("alpha_p", alpha_p), ("phi0", phi0)):
        if not math.isfinite(val):
            raise ConfigError(f"{name} must be finite, got {val!r}")
    no = ordinary_index(crystal, lambda_p)
    ne = extraordinary_index(crystal, lambda_p)
    sp, cp = math.sin(phi_p), math.cos(phi_p)
    sa, ca = math.sin(alpha_p), math.cos(alpha_p)
    s0, c0 = math.sin(phi0), math.cos(phi0)
    term_o = no * no * (sp * sp * sa * sa + (sp * c0 * ca + cp * s0) ** 2)
    term_e = ne * ne * (cp * c0 - sp * s0 * ca) ** 2
    return no * ne / math.sqrt(term_o + term_e)


def walkoff_slope(crystal: SellmeierSet, lambda_p: float, phi0: float) -> float:
    """Walk-off slope zeta, defined by d n_p/d phi_p|_0 = -zeta cos(alpha_p).

    Closed-form derivative of the anisotropic index; the finite-difference
    cross-check lives in the test suite. zeta >= 0 for 0 <= phi0 <= pi/2 in
    a negative uniaxial crystal.
    """
    no = ordinary_index(crystal, lambda_p)
    ne = extraordinary_index(crystal, lambda_p)
    s0, c0 = math.sin(phi0), math.cos(phi0)
    denom = no * no * s0 * s0 + ne * ne * c0 * c0
    return no * ne * (no * no - ne * ne) * math.sin(2.0 * phi0) / (2.0 * denom**1.5)


def cone_angle(crystal: SellmeierSet, lambda_p: float, phi0: float) -> float:
    """Opening polar angle theta0 of the emission cone, rad.

    Raises:
        RegimeError: if the on-axis pump index exceeds n_o(2 lambda_p),
            i.e. no real cone exists (collinear-forbidden regime).
    """
    no = ordinary_index(crystal, 2.0 * lambda_p)
    np0 = pump_index(crystal, lambda_p, 0.0, 0.0, phi0)
    # rounding right at the collinear threshold may leave n_p above n_o by
    # a few ulp; treat that as theta0 = 0 rather than a forbidden regime
    if np0 > no + 1e-12:
        raise RegimeError(
            f"n_p({phi0:g}) = {np0:.6f} > n_o(2 lambda_p) = {no:.6f}: "
            "no emission cone at this optic-axis angle"
        )
    return math.sqrt(2.0 * no * max(no - np0, 0.0))


def collinear_threshold(crystal: SellmeierSet, lambda_p: float) -> tuple[float, float]:
    """The two optic-axis angles bounding the noncollinear window on [0, pi].

    Roots of n_p(phi0) - n_o(2 lambda_p), each found by Brent's method in a
    bracket from a dense pre-scan. Between the two roots the difference is
    negative and a cone exists.
    """
    from scipy.optimize import brentq  # about 0.8 s to import; kept off module import

    no = ordinary_index(crystal, 2.0 * lambda_p)

    def f(phi0: float) -> float:
        return pump_index(crystal, lambda_p, 0.0, 0.0, phi0) - no

    grid = [math.pi * i / _PRESCAN_POINTS for i in range(_PRESCAN_POINTS + 1)]
    vals = [f(p) for p in grid]
    brackets = [
        (grid[i], grid[i + 1])
        for i in range(_PRESCAN_POINTS)
        if vals[i] * vals[i + 1] < 0.0
    ]
    if len(brackets) != 2:
        raise RegimeError(
            f"no noncollinear window: found {len(brackets)} sign changes of "
            "n_p(phi0) - n_o on [0, pi], expected 2"
        )
    return tuple(brentq(f, lo, hi, xtol=_ROOT_TOL) for (lo, hi) in brackets)


@dataclass(frozen=True)
class ExperimentConfig:
    """Pump and crystal parameters of one SPDC configuration.

    Attributes:
        lambda_p: pump wavelength, um.
        w: pump waist, um, within LENGTH_RANGE_UM.
        L: crystal length along the pump direction, um, within LENGTH_RANGE_UM.
        phi0: optic-axis angle, rad, in [0, pi/2].
        crystal: dispersion dataset.
    """

    lambda_p: float
    w: float
    L: float
    phi0: float
    crystal: SellmeierSet

    def __post_init__(self):
        lo, hi = LENGTH_RANGE_UM
        for name in ("w", "L"):
            if not lo <= getattr(self, name) <= hi:  # also rejects nan and inf
                raise ConfigError(
                    f"{name} must lie in [{lo:g}, {hi:g}] um, got {getattr(self, name)!r}"
                )
        if not 0.0 <= self.phi0 <= math.pi / 2:  # also rejects nan and inf
            raise ConfigError(f"phi0 must lie in [0, pi/2], got {self.phi0!r}")
        self.crystal._check_range(self.lambda_p)  # also rejects nan, inf and <= 0
        self.crystal._check_range(2.0 * self.lambda_p)


@dataclass(frozen=True)
class DerivedScales:
    """All reusable scale quantities of a noncollinear configuration.

    Attributes:
        n_o: ordinary index at the down-converted wavelength, n_o(2 lambda_p).
        n_p0: on-axis pump index n_p(lambda_p, 0, 0, phi0).
        theta0: cone opening angle, rad.
        zeta: walk-off slope, dimensionless.
        dtheta_p: pump angular width lambda_p / (pi w), rad.
        dtheta_L: crystal angular width n_o lambda_p / (pi L), rad.
        phi_const: constant part of the sinc argument, L * Delta_0 / 2 with
            Delta_0 = -pi theta0^2 / (n_o lambda_p); negative when
            noncollinear.
        a: wide double-Gaussian width, 2 pi.
        b: narrow double-Gaussian width dtheta_p / theta0, rad.
    """

    n_o: float
    n_p0: float
    theta0: float
    zeta: float
    dtheta_p: float
    dtheta_L: float
    phi_const: float
    a: float
    b: float

    @property
    def ring_thickness(self) -> float:
        """Polar thickness of the emission ring over the cone angle, dtheta_L / theta0."""
        return self.dtheta_L / self.theta0


def derive_scales(config: ExperimentConfig) -> DerivedScales:
    """Populate DerivedScales for a valid noncollinear configuration.

    Propagates the cone_angle regime error when n_p0 > n_o.
    """
    theta0 = cone_angle(config.crystal, config.lambda_p, config.phi0)
    if theta0 == 0.0:
        raise RegimeError("phi0 sits exactly on the collinear threshold: theta0 = 0")
    n_o = ordinary_index(config.crystal, 2.0 * config.lambda_p)
    n_p0 = pump_index(config.crystal, config.lambda_p, 0.0, 0.0, config.phi0)
    zeta = walkoff_slope(config.crystal, config.lambda_p, config.phi0)
    dtheta_p = config.lambda_p / (math.pi * config.w)
    dtheta_L = n_o * config.lambda_p / (math.pi * config.L)
    # Constant part of the phase mismatch: Delta_0 = -pi theta0^2/(n_o lambda_p),
    # so phi = L Delta_0 / 2. (~ -900 at the reference configuration.)
    phi_const = -math.pi * theta0**2 * config.L / (2.0 * n_o * config.lambda_p)
    return DerivedScales(
        n_o=n_o,
        n_p0=n_p0,
        theta0=theta0,
        zeta=zeta,
        dtheta_p=dtheta_p,
        dtheta_L=dtheta_L,
        phi_const=phi_const,
        a=2.0 * math.pi,
        b=dtheta_p / theta0,
    )


def load_crystal(source: str | Path = "BBO") -> SellmeierSet:
    """Load a crystal data file by path, or a built-in set by name ("BBO")."""
    if isinstance(source, str) and source.upper() == "BBO":
        text = (
            resources.files("biphoton").joinpath("data/bbo.crystal").read_text()
        )
    else:
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"crystal data file not found: {source}")
        text = path.read_text()
    return _parse_crystal(text, str(source))


def read_key_values(text: str, source: str) -> dict[str, tuple[int, str]]:
    """{key: (line number, value)} of a crystal or run-config file; blank
    lines and `#` comments are skipped, a repeated key keeps its last value."""
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        kv[key.strip()] = (lineno, value.strip())
    return kv


def _parse_crystal(text: str, source: str) -> SellmeierSet:
    kv = {key: value for key, (_, value) in read_key_values(text, source).items()}

    def fnum(key: str) -> float:
        try:
            return float(kv[key])
        except KeyError:
            raise ConfigError(f"{source}: missing field {key!r}") from None
        except ValueError:
            raise ConfigError(f"{source}: field {key!r} is not a number") from None

    crystal = SellmeierSet(
        name=kv.get("name", source),
        ordinary=tuple(fnum(f"ordinary_{k}") for k in "ABCD"),
        extraordinary=tuple(fnum(f"extraordinary_{k}") for k in "ABCD"),
        valid_range_um=(fnum("valid_min_um"), fnum("valid_max_um")),
        provenance=kv.get("provenance", ""),
    )
    lo, hi = crystal.valid_range_um
    if not 0.0 < lo < hi:
        raise ConfigError(f"{source}: invalid validity range ({lo}, {hi})")
    # negative uniaxial sanity check over the declared range
    for i in range(33):
        lam = lo + (hi - lo) * i / 32
        no = crystal._index(lam, crystal.ordinary)
        ne = crystal._index(lam, crystal.extraordinary)
        if not (1.0 < ne < no):
            raise ConfigError(
                f"{source}: indices at {lam:.4f} um violate the negative "
                f"uniaxial invariant (n_o={no:.4f}, n_e={ne:.4f})"
            )
    return crystal
