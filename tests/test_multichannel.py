"""Channel layout feasibility, HOM state construction, K and entropy."""

import math

import numpy as np
import pytest

from biphoton import (
    ChannelLayout,
    ConfigError,
    InfeasibleLayoutError,
    MultichannelState,
    build_state,
    equally_spaced_layout,
    multichannel_entanglement,
    validate_layout,
)
from biphoton.multichannel import channel_overlap

# generous geometry used where only state algebra is under test
WIDE = dict(fiber_radius=0.01, ring_thickness=0.004, coincidence_width=0.002)


def _state(n):
    mag = 1.0 / math.sqrt(2 * n)
    amps = np.empty(2 * n)
    amps[0::2] = mag
    amps[1::2] = -mag
    return MultichannelState(n_planes=n, amplitudes=amps)


class TestChannelLayout:
    @pytest.mark.parametrize("n", [0, -1])
    def test_requires_one_plane(self, n):
        with pytest.raises(ConfigError, match="at least one plane"):
            ChannelLayout(n, **WIDE)

    def test_single_plane_gap_is_pi(self):
        assert ChannelLayout(1, **WIDE).gap == math.pi

    def test_cyclic_gaps_sum_to_pi(self):
        for n in (2, 3, 4, 7, 1714):
            layout = equally_spaced_layout(n, **WIDE)
            assert layout.n_planes * layout.gap == pytest.approx(math.pi, abs=1e-15)

    def test_equally_spaced_layout(self):
        layout = equally_spaced_layout(8, **WIDE)
        assert layout.n_planes == 8
        assert layout.gap == math.pi / 8


class TestValidateLayout:
    def test_wide_margins_feasible(self):
        layout = equally_spaced_layout(2, **WIDE)
        report = validate_layout(layout)
        assert report.feasible
        assert all(c["pass"] for c in report.constraints.values())

    def test_planes_closer_than_coincidence_width_infeasible(self):
        # 2000 planes leave gaps of pi/2000 = 1.57e-3, below the width 2e-3
        layout = equally_spaced_layout(2000, **WIDE)
        assert layout.gap < layout.coincidence_width
        report = validate_layout(layout)
        assert not report.feasible
        assert not report.constraints["plane_gaps"]["pass"]
        assert report.constraints["fiber_covers_ring"]["pass"]
        assert report.failed == ["plane_gaps"]

    def test_fiber_smaller_than_ring_infeasible(self):
        layout = equally_spaced_layout(
            2,
            fiber_radius=0.003,
            ring_thickness=0.004,
            coincidence_width=0.002,
        )
        report = validate_layout(layout)
        assert not report.feasible
        assert not report.constraints["fiber_covers_ring"]["pass"]
        assert report.failed == ["fiber_covers_ring"]

    def test_feasibility_monotone_in_widths(self):
        base = equally_spaced_layout(
            9, fiber_radius=0.02, ring_thickness=0.004, coincidence_width=0.01
        )
        assert validate_layout(base).feasible
        import dataclasses

        for fr, cw in [(0.01, 0.01), (0.02, 0.002), (0.005, 0.0001)]:
            shrunk = dataclasses.replace(
                base, fiber_radius=fr, coincidence_width=cw
            )
            assert validate_layout(shrunk).feasible


class TestMaxFeasiblePlanes:
    """The largest N that validate_layout accepts: N planes fit only when
    their gap pi/N exceeds the required gap."""

    def test_reference_config_value(self, ref_scales, ref_dist):
        ring = ref_scales.ring_thickness
        # 1714 frozen from an independent packing evaluation
        for n, expect in [(1714, True), (1715, False)]:
            layout = equally_spaced_layout(n, 2.0 * ring, ring, ref_dist.coincidence_width)
            assert validate_layout(layout).feasible is expect

    @pytest.mark.parametrize("fiber_radius,cw", [(0.01, 0.002), (0.002, 0.02)])
    def test_agrees_with_greedy_packing(self, fiber_radius, cw):
        safety = 3.0
        # greedy oracle: place planes left to right at more than the minimum
        # allowed spacing and count how many fit in the period-pi window
        required = safety * max(2.0 * fiber_radius, cw)
        n_max = math.ceil(math.pi / required) - 1
        # the greedy maximum must actually validate, one more must not
        for n, expect in [(n_max, True), (n_max + 1, False)]:
            layout = equally_spaced_layout(
                n, fiber_radius, min(fiber_radius / 2, 0.9 * fiber_radius), cw, safety
            )
            assert validate_layout(layout).feasible is expect

    def test_gap_equal_to_required_is_refused(self):
        # r_f = pi/12 at safety 3 requires a gap of pi/2: two planes leave
        # exactly that gap, which does not exceed it, so one plane is the most
        fiber_radius = math.pi / 12
        geometry = dict(fiber_radius=fiber_radius, ring_thickness=fiber_radius / 2,
                        coincidence_width=1e-3, safety_factor=3.0)
        gaps = validate_layout(equally_spaced_layout(2, **geometry)).constraints["plane_gaps"]
        assert gaps["min_gap_rad"] == gaps["required_gap_rad"]
        assert not gaps["pass"]
        assert validate_layout(equally_spaced_layout(1, **geometry)).feasible


class TestBuildState:
    def test_single_plane_hom_pair(self):
        state = build_state(equally_spaced_layout(1, **WIDE))
        assert state.amplitudes == pytest.approx(
            [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)]
        )

    def test_four_planes_eight_channels(self):
        state = build_state(equally_spaced_layout(4, **WIDE))
        assert len(state.amplitudes) == 8
        assert np.max(np.abs(np.abs(state.amplitudes) - 1.0 / math.sqrt(8.0))) == 0.0
        # alternating signs: down channel of each plane carries the minus
        assert np.all(state.amplitudes[0::2] > 0)
        assert np.all(state.amplitudes[1::2] < 0)

    def test_norm_is_exactly_one(self):
        for n in (1, 2, 3, 7, 64, 513):
            state = build_state(
                equally_spaced_layout(
                    n, fiber_radius=1e-4, ring_thickness=5e-5, coincidence_width=1e-5
                )
            )
            assert float(np.sum(state.amplitudes**2)) == pytest.approx(1.0, abs=1e-15)

    def test_infeasible_layout_names_constraint(self):
        layout = equally_spaced_layout(2000, **WIDE)
        with pytest.raises(InfeasibleLayoutError, match="plane_gaps"):
            build_state(layout)

    def test_adjacent_overlap_small_at_safety_three(self, ref_scales, ref_dist):
        # near the packing limit the gap is still 3x the coincidence width,
        # so the ridge cross-correlation across the gap is tiny
        ring = ref_scales.ring_thickness
        layout = equally_spaced_layout(1714, 2.0 * ring, ring, ref_dist.coincidence_width)
        report = validate_layout(layout)
        assert report.feasible
        assert report.max_overlap < 1e-4
        assert channel_overlap(layout) == report.max_overlap


class TestEntanglement:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 100])
    def test_closed_forms_exact(self, n):
        k, s = multichannel_entanglement(_state(n))
        assert abs(k - 2.0 * n) < 1e-12 * 2.0 * n
        assert abs(s - (1.0 + math.log2(n))) < 1e-12

    def test_closed_forms_across_large_range(self):
        for n in (10, 137, 1024, 9999, 10**4):
            k, s = multichannel_entanglement(_state(n))
            assert abs(k - 2.0 * n) / (2.0 * n) < 1e-12
            assert abs(s - (1.0 + math.log2(n))) < 1e-12

    def test_weights_are_uniform(self):
        state = _state(6)
        assert np.max(np.abs(state.weights - 1.0 / 12.0)) < 1e-16
