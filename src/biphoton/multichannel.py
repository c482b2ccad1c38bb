"""Multichannel Schmidt-type channelization of the SPDC ring.

N diametric fiber-pair planes, equally spaced on the ring, collect photon
pairs; each pair feeds a Hong-Ou-Mandel beam splitter, giving 2N
equal-weight channels. Channels are ideal: losses and HOM visibility are
not modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import _schmidt_measures
from .errors import ConfigError, InfeasibleLayoutError

DEFAULT_SAFETY_FACTOR = 3.0
# The multichannel command refuses more planes before it builds a layout. A
# layout is a few numbers whatever N; the cap bounds the 2N channel weights
# of the state and its JSON. A feasible layout of 10**6 planes writes 22 MB
# of JSON at a peak RSS (ru_maxrss) of 296 MB, 267 MB above the interpreter.
MAX_PLANES = 10**6


@dataclass(frozen=True)
class ChannelLayout:
    """N fiber-pair planes equally spaced on the ring.

    A plane covers a full diameter, so the N planes split the period pi
    into N equal gaps.
    """

    n_planes: int
    fiber_radius: float
    ring_thickness: float
    coincidence_width: float
    safety_factor: float = DEFAULT_SAFETY_FACTOR

    def __post_init__(self):
        if self.n_planes < 1:
            raise ConfigError("need at least one plane")
        for name in ("fiber_radius", "ring_thickness", "coincidence_width"):
            if not 0.0 < getattr(self, name) < math.inf:  # also rejects nan
                raise ConfigError(f"{name} must be > 0 and finite")
        if not 1.0 <= self.safety_factor < math.inf:  # also rejects nan
            raise ConfigError("safety factor must be >= 1 and finite")

    @property
    def gap(self) -> float:
        """Angular gap between adjacent planes, pi/N."""
        return math.pi / self.n_planes


# N planes uniformly spread over the ring: a ChannelLayout is nothing else
equally_spaced_layout = ChannelLayout


@dataclass(frozen=True)
class LayoutReport:
    """Per-constraint feasibility with measured margins."""

    feasible: bool
    constraints: dict
    max_overlap: float

    @property
    def failed(self) -> list[str]:
        """Names of the violated constraints, in report order."""
        return [k for k, v in self.constraints.items() if not v["pass"]]

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "constraints": self.constraints,
            "max_adjacent_overlap": self.max_overlap,
        }


def channel_overlap(layout: ChannelLayout) -> float:
    """Overlap of the coincidence ridges of two adjacent planes, normalized
    cross-correlation of the azimuthal Gaussian density across the gap."""
    return math.exp(-(layout.gap**2) / (2.0 * layout.coincidence_width**2))


def validate_layout(layout: ChannelLayout) -> LayoutReport:
    """Check fiber size against ring thickness and the plane gap against the
    safety-scaled fiber diameter and coincidence width."""
    gap = layout.gap
    required = layout.safety_factor * max(
        2.0 * layout.fiber_radius, layout.coincidence_width
    )
    fiber_ok = layout.fiber_radius > layout.ring_thickness
    gap_ok = gap > required
    constraints = {
        "fiber_covers_ring": {
            "pass": fiber_ok,
            "fiber_radius_rad": layout.fiber_radius,
            "ring_thickness_rad": layout.ring_thickness,
            "margin_rad": layout.fiber_radius - layout.ring_thickness,
        },
        "plane_gaps": {
            "pass": gap_ok,
            "min_gap_rad": gap,
            "required_gap_rad": required,
            "margin_rad": gap - required,
        },
    }
    return LayoutReport(
        feasible=fiber_ok and gap_ok,
        constraints=constraints,
        max_overlap=channel_overlap(layout),
    )


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
