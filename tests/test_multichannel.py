"""Channel layout feasibility, HOM state construction, K and entropy."""

import csv
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
    max_feasible_planes,
    multichannel_entanglement,
    validate_layout,
)
from biphoton.multichannel import channel_overlap, export_layout_csv

# generous geometry used where only state algebra is under test
WIDE = dict(fiber_radius=0.01, ring_thickness=0.004, coincidence_width=0.002)


def _state(n):
    mag = 1.0 / math.sqrt(2 * n)
    amps = np.empty(2 * n)
    amps[0::2] = mag
    amps[1::2] = -mag
    return MultichannelState(n_planes=n, amplitudes=amps)


class TestChannelLayout:
    def test_requires_increasing_azimuths(self):
        with pytest.raises(ConfigError):
            ChannelLayout((0.3, 0.1), **WIDE)

    def test_requires_half_open_window(self):
        with pytest.raises(ConfigError):
            ChannelLayout((-math.pi / 2,), **WIDE)
        ChannelLayout((math.pi / 2,), **WIDE)  # right edge included

    def test_single_plane_gap_is_pi(self):
        layout = ChannelLayout((0.2,), **WIDE)
        assert layout.gaps() == [math.pi]

    def test_cyclic_gaps_sum_to_pi(self):
        layout = ChannelLayout((-1.2, -0.3, 0.4, 1.5), **WIDE)
        assert sum(layout.gaps()) == pytest.approx(math.pi, abs=1e-15)

    def test_equally_spaced_layout(self):
        layout = equally_spaced_layout(8, **WIDE)
        gaps = layout.gaps()
        assert len(layout.plane_azimuths) == 8
        assert max(gaps) - min(gaps) < 1e-12


class TestValidateLayout:
    def test_wide_margins_feasible(self):
        layout = ChannelLayout((-math.pi / 4, math.pi / 4), **WIDE)
        report = validate_layout(layout)
        assert report.feasible
        assert all(c["pass"] for c in report.constraints.values())

    def test_planes_closer_than_coincidence_width_infeasible(self):
        layout = ChannelLayout(
            (0.0, 0.001),
            fiber_radius=0.01,
            ring_thickness=0.004,
            coincidence_width=0.002,
        )
        report = validate_layout(layout)
        assert not report.feasible
        assert not report.constraints["plane_gaps"]["pass"]
        assert report.constraints["fiber_covers_ring"]["pass"]
        assert report.failed == ["plane_gaps"]

    def test_fiber_smaller_than_ring_infeasible(self):
        layout = ChannelLayout(
            (-math.pi / 4, math.pi / 4),
            fiber_radius=0.003,
            ring_thickness=0.004,
            coincidence_width=0.002,
        )
        report = validate_layout(layout)
        assert not report.feasible
        assert not report.constraints["fiber_covers_ring"]["pass"]
        assert report.failed == ["fiber_covers_ring"]

    def test_feasibility_monotone_in_widths(self):
        azimuths = tuple(np.linspace(-1.4, 1.4, 9))
        base = ChannelLayout(
            azimuths, fiber_radius=0.02, ring_thickness=0.004, coincidence_width=0.01
        )
        assert validate_layout(base).feasible
        import dataclasses

        for fr, cw in [(0.01, 0.01), (0.02, 0.002), (0.005, 0.0001)]:
            shrunk = dataclasses.replace(
                base, fiber_radius=fr, coincidence_width=cw
            )
            assert validate_layout(shrunk).feasible

    def test_report_reserves_ideal_channel_fields(self):
        report = validate_layout(equally_spaced_layout(4, **WIDE))
        d = report.to_dict()
        assert d["collection_efficiency"] == 1.0
        assert d["hom_visibility"] == 1.0


class TestMaxFeasiblePlanes:
    def test_reference_config_value(self, ref_scales, ref_dist):
        ring = ref_scales.dtheta_L / ref_scales.theta0
        n_max = max_feasible_planes(2.0 * ring, ref_dist.coincidence_width)
        assert n_max == 1714  # frozen from an independent packing evaluation

    @pytest.mark.parametrize("fiber_radius,cw", [(0.01, 0.002), (0.002, 0.02)])
    def test_agrees_with_greedy_packing(self, fiber_radius, cw):
        safety = 3.0
        n_max = max_feasible_planes(fiber_radius, cw, safety)
        # greedy oracle: place planes left to right at the minimum allowed
        # spacing and count how many fit in the period-pi window
        required = safety * max(2.0 * fiber_radius, cw)
        greedy = int(math.pi // required)
        assert n_max == greedy
        # the reported maximum must actually validate, one more must not
        for n, expect in [(n_max, True), (n_max + 1, False)]:
            layout = equally_spaced_layout(
                n, fiber_radius, min(fiber_radius / 2, 0.9 * fiber_radius), cw, safety
            )
            assert validate_layout(layout).feasible is expect


class TestBuildState:
    def test_single_plane_hom_pair(self):
        state = build_state(ChannelLayout((0.0,), **WIDE))
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
        layout = ChannelLayout(
            (0.0, 0.001),
            fiber_radius=0.01,
            ring_thickness=0.004,
            coincidence_width=0.002,
        )
        with pytest.raises(InfeasibleLayoutError, match="plane_gaps"):
            build_state(layout)

    def test_adjacent_overlap_small_at_safety_three(self, ref_scales, ref_dist):
        # near the packing limit the gap is still 3x the coincidence width,
        # so the ridge cross-correlation across the gap is tiny
        ring = ref_scales.dtheta_L / ref_scales.theta0
        n_max = max_feasible_planes(2.0 * ring, ref_dist.coincidence_width)
        layout = equally_spaced_layout(
            n_max, 2.0 * ring, ring, ref_dist.coincidence_width
        )
        report = validate_layout(layout)
        assert report.feasible
        assert report.max_overlap < 1e-4
        assert channel_overlap(layout, min(layout.gaps())) == report.max_overlap


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


class TestLayoutExport:
    def test_csv_schema_and_determinism(self, tmp_path):
        layout = equally_spaced_layout(5, **WIDE)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_layout_csv(layout, p1)
        export_layout_csv(layout, p2)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["plane", "alpha_rad", "gap_to_next_rad", "gap_margin_rad"]
        assert len(rows) == 6
