"""Multichannel Schmidt-type channelization of the SPDC ring.

N diametric fiber-pair planes collect photon pairs off the ring; each pair
feeds a Hong-Ou-Mandel beam splitter, giving 2N equal-weight channels.
Channels are ideal (unit collection, perfect HOM visibility); loss fields
are reserved in the report schema but not modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import _schmidt_measures
from .configio import write_csv
from .errors import ConfigError, InfeasibleLayoutError

DEFAULT_SAFETY_FACTOR = 3.0
# The multichannel command refuses more planes before it builds a layout: a
# plane costs about 84 bytes of layout and report (113 MB peak RSS at 10**6).
MAX_PLANES = 10**6


@dataclass(frozen=True)
class ChannelLayout:
    """Geometry of the fiber-pair planes on the ring.

    plane_azimuths must be strictly increasing in (-pi/2, pi/2]; gaps are
    measured cyclically with period pi (a plane covers a full diameter).
    """

    plane_azimuths: tuple[float, ...]
    fiber_radius: float
    ring_thickness: float
    coincidence_width: float
    safety_factor: float = DEFAULT_SAFETY_FACTOR

    def __post_init__(self):
        if len(self.plane_azimuths) < 1:
            raise ConfigError("need at least one plane")
        az = self.plane_azimuths
        if any(a2 <= a1 for a1, a2 in zip(az, az[1:])):
            raise ConfigError("plane azimuths must be strictly increasing")
        if az[0] <= -math.pi / 2 or az[-1] > math.pi / 2:
            raise ConfigError("plane azimuths must lie in (-pi/2, pi/2]")
        for name in ("fiber_radius", "ring_thickness", "coincidence_width"):
            if not 0.0 < getattr(self, name) < math.inf:  # also rejects nan
                raise ConfigError(f"{name} must be > 0 and finite")
        if not 1.0 <= self.safety_factor < math.inf:  # also rejects nan
            raise ConfigError("safety factor must be >= 1 and finite")

    @property
    def n_planes(self) -> int:
        return len(self.plane_azimuths)

    def gaps(self) -> list[float]:
        """Angular gaps between cyclically adjacent planes (period pi)."""
        az = self.plane_azimuths
        if len(az) == 1:
            return [math.pi]
        inner = [a2 - a1 for a1, a2 in zip(az, az[1:])]
        return inner + [az[0] + math.pi - az[-1]]


def equally_spaced_layout(
    n: int,
    fiber_radius: float,
    ring_thickness: float,
    coincidence_width: float,
    safety_factor: float = DEFAULT_SAFETY_FACTOR,
) -> ChannelLayout:
    """N planes uniformly spread over (-pi/2, pi/2]."""
    # pi * n / n can round one ulp above pi; pin the last plane to the edge
    az = tuple(
        math.pi / 2 if k == n - 1 else -math.pi / 2 + math.pi * (k + 1) / n
        for k in range(n)
    )
    return ChannelLayout(
        plane_azimuths=az,
        fiber_radius=fiber_radius,
        ring_thickness=ring_thickness,
        coincidence_width=coincidence_width,
        safety_factor=safety_factor,
    )


@dataclass(frozen=True)
class LayoutReport:
    """Per-constraint feasibility with measured margins."""

    feasible: bool
    constraints: dict
    min_gap: float
    required_gap: float
    max_overlap: float

    @property
    def failed(self) -> list[str]:
        """Names of the violated constraints, in report order."""
        return [k for k, v in self.constraints.items() if not v["pass"]]

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "constraints": self.constraints,
            "min_gap_rad": self.min_gap,
            "required_gap_rad": self.required_gap,
            "max_adjacent_overlap": self.max_overlap,
            # reserved: losses / HOM visibility are not modeled
            "collection_efficiency": 1.0,
            "hom_visibility": 1.0,
        }


def _required_gap(fiber_radius: float, coincidence_width: float, safety: float) -> float:
    """Smallest plane gap that clears the fiber diameter and the
    coincidence width by the safety factor."""
    return safety * max(2.0 * fiber_radius, coincidence_width)


def channel_overlap(layout: ChannelLayout, gap: float) -> float:
    """Overlap of the coincidence ridges of two planes separated by `gap`,
    normalized cross-correlation of the azimuthal Gaussian density."""
    return math.exp(-(gap**2) / (2.0 * layout.coincidence_width**2))


def validate_layout(layout: ChannelLayout) -> LayoutReport:
    """Check fiber size against ring thickness and plane gaps against the
    safety-scaled fiber diameter and coincidence width."""
    gaps = layout.gaps()
    min_gap = min(gaps)
    required = _required_gap(
        layout.fiber_radius, layout.coincidence_width, layout.safety_factor
    )
    fiber_ok = layout.fiber_radius > layout.ring_thickness
    gap_ok = min_gap > required
    constraints = {
        "fiber_covers_ring": {
            "pass": fiber_ok,
            "fiber_radius_rad": layout.fiber_radius,
            "ring_thickness_rad": layout.ring_thickness,
            "margin_rad": layout.fiber_radius - layout.ring_thickness,
        },
        "plane_gaps": {
            "pass": gap_ok,
            "min_gap_rad": min_gap,
            "required_gap_rad": required,
            "margin_rad": min_gap - required,
        },
    }
    return LayoutReport(
        feasible=fiber_ok and gap_ok,
        constraints=constraints,
        min_gap=min_gap,
        required_gap=required,
        max_overlap=channel_overlap(layout, min_gap),
    )


def max_feasible_planes(
    fiber_radius: float,
    coincidence_width: float,
    safety_factor: float = DEFAULT_SAFETY_FACTOR,
) -> int:
    """Largest N whose equally spaced layout satisfies the gap constraint."""
    required = _required_gap(fiber_radius, coincidence_width, safety_factor)
    return int(math.floor(math.pi / required))


@dataclass(frozen=True)
class MultichannelState:
    """Post-HOM state over 2N channels: (up, down) amplitude per plane."""

    n_planes: int
    amplitudes: np.ndarray = field(repr=False)  # shape (2N,), up then down per plane

    @property
    def weights(self) -> np.ndarray:
        return self.amplitudes**2


def build_state(layout: ChannelLayout) -> MultichannelState:
    """Pre-HOM pair amplitudes 1/sqrt(N) become 2N post-HOM amplitudes of
    magnitude 1/sqrt(2N), the down-channel carrying the minus sign.

    Raises:
        InfeasibleLayoutError: if the layout fails validation, naming the
            violated constraint.
    """
    report = validate_layout(layout)
    if not report.feasible:
        raise InfeasibleLayoutError(
            f"layout infeasible, violated constraint(s): {', '.join(report.failed)}"
        )
    n = layout.n_planes
    mag = 1.0 / math.sqrt(2 * n)
    amps = np.empty(2 * n)
    amps[0::2] = mag
    amps[1::2] = -mag
    return MultichannelState(n_planes=n, amplitudes=amps)


def multichannel_entanglement(state: MultichannelState) -> tuple[float, float]:
    """(K, S_r in bits) computed from the stored channel weights.

    Equal to the closed forms K = 2N and S_r = 1 + log2(N).
    """
    return _schmidt_measures(state.weights)


def export_layout_csv(layout: ChannelLayout, path: str | Path) -> None:
    """CSV of plane geometry and margins for ring diagrams."""
    report = validate_layout(layout)
    gaps = np.array(layout.gaps())
    margins = gaps - report.required_gap
    write_csv(path, ("plane", "alpha_rad", "gap_to_next_rad", "gap_margin_rad"),
              [[("%d", range(gaps.size)), ("%.12g", layout.plane_azimuths),
                ("%.12g", gaps)]], [margins])
