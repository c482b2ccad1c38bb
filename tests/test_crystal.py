"""Dispersion, pump index, walk-off, cone geometry, derived scales."""

import math

import numpy as np
import pytest

from biphoton import (
    ConfigError,
    ExperimentConfig,
    RegimeError,
    WavelengthRangeError,
    collinear_threshold,
    cone_angle,
    derive_scales,
    extraordinary_index,
    load_crystal,
    ordinary_index,
    pump_index,
    walkoff_slope,
)

LAMBDA_P = 0.4047

# Hand-evaluated from the shipped coefficients:
# n^2 = 2.7359 + 0.01878/(l^2 - 0.01822) - 0.01354 l^2 at l = 0.4047
N_O_PUMP = 1.6919513879786712
# n^2 = 2.3753 + 0.01224/(l^2 - 0.01667) - 0.01516 l^2 at l = 0.4047
N_E_PUMP = 1.567169080476735
# same ordinary polynomial at the degenerate wavelength 2 * 0.4047
N_O_DOWN = 1.6602758055721079


class TestIndices:
    def test_ordinary_reference_value(self, bbo):
        assert ordinary_index(bbo, LAMBDA_P) == pytest.approx(N_O_PUMP, abs=1e-12)

    def test_extraordinary_reference_value(self, bbo):
        assert extraordinary_index(bbo, LAMBDA_P) == pytest.approx(N_E_PUMP, abs=1e-12)

    def test_deterministic(self, bbo):
        assert ordinary_index(bbo, 0.5) == ordinary_index(bbo, 0.5)

    def test_negative_uniaxial_across_range(self, bbo):
        lo, hi = bbo.valid_range_um
        for lam in np.linspace(lo, hi, 41):
            assert extraordinary_index(bbo, lam) < ordinary_index(bbo, lam)

    def test_out_of_range_raises_with_range(self, bbo):
        with pytest.raises(WavelengthRangeError) as exc:
            ordinary_index(bbo, 3.0)
        assert str(bbo.valid_range_um[1]) in str(exc.value)
        with pytest.raises(WavelengthRangeError):
            extraordinary_index(bbo, 0.01)


class TestPumpIndex:
    def test_on_axis_reduces_to_ordinary(self, bbo):
        for alpha_p in (0.0, 0.4, 1.3, 3.0):
            got = pump_index(bbo, LAMBDA_P, 0.0, alpha_p, 0.0)
            assert got == pytest.approx(N_O_PUMP, abs=1e-14)

    def test_perpendicular_axis_reduces_to_extraordinary(self, bbo):
        for alpha_p in (0.0, 0.7, 2.1):
            got = pump_index(bbo, LAMBDA_P, 0.0, alpha_p, math.pi / 2)
            assert got == pytest.approx(N_E_PUMP, abs=1e-14)

    def test_alpha_p_independent_on_axis(self, bbo):
        # with phi_p = 0 the azimuth is undefined and must not matter
        values = [
            pump_index(bbo, LAMBDA_P, 0.0, a, 0.7)
            for a in np.linspace(0.0, 2.0 * math.pi, 17)
        ]
        assert max(values) - min(values) < 1e-12

    def test_between_principal_indices(self, bbo):
        n = pump_index(bbo, LAMBDA_P, 0.0, 0.0, 0.7)
        assert N_E_PUMP < n < N_O_PUMP

    def test_nonfinite_angle_rejected(self, bbo):
        with pytest.raises(ConfigError):
            pump_index(bbo, LAMBDA_P, math.nan, 0.0, 0.7)


class TestWalkoff:
    def test_reference_value(self, bbo):
        # closed-form value frozen from an independent evaluation of the
        # derivative of the anisotropic index
        zeta = walkoff_slope(bbo, LAMBDA_P, 0.7)
        assert zeta == pytest.approx(0.12494468891287291, abs=1e-12)
        assert zeta == pytest.approx(0.12, abs=0.01)

    def test_zero_on_axis(self, bbo):
        assert walkoff_slope(bbo, LAMBDA_P, 0.0) == 0.0
        assert abs(walkoff_slope(bbo, LAMBDA_P, math.pi / 2)) < 1e-15

    @pytest.mark.parametrize("phi0", [0.3, 0.7, 1.1, 1.5])
    def test_matches_finite_difference(self, bbo, phi0):
        # d n_p / d phi_p at phi_p = 0, alpha_p = 0, central step 1e-6 rad
        h = 1e-6
        fd = (
            pump_index(bbo, LAMBDA_P, h, 0.0, phi0)
            - pump_index(bbo, LAMBDA_P, -h, 0.0, phi0)
        ) / (2.0 * h)
        zeta = walkoff_slope(bbo, LAMBDA_P, phi0)
        assert abs(-zeta - fd) / abs(fd) < 1e-4

    def test_anisotropy_sign_convention(self, bbo):
        # derivative is -zeta * cos(alpha_p): maximal at 0, zero at pi/2
        zeta = walkoff_slope(bbo, LAMBDA_P, 0.7)
        h = 1e-6
        for alpha_p, expect in [(0.0, -zeta), (math.pi / 2, 0.0), (math.pi, zeta)]:
            fd = (
                pump_index(bbo, LAMBDA_P, h, alpha_p, 0.7)
                - pump_index(bbo, LAMBDA_P, -h, alpha_p, 0.7)
            ) / (2.0 * h)
            assert fd == pytest.approx(expect, abs=1e-6)


class TestConeAngle:
    def test_reference_value(self, bbo):
        assert cone_angle(bbo, LAMBDA_P, 0.7) == pytest.approx(
            0.2800911176503974, abs=1e-12
        )

    def test_cross_checked_point(self, bbo):
        # frozen from an independent bisection on n_p(phi0) - n_o plus a
        # direct hand evaluation of sqrt(2 n_o (n_o - n_p))
        assert cone_angle(bbo, LAMBDA_P, 0.6) == pytest.approx(
            0.19363195569192052, abs=1e-12
        )

    def test_zero_at_collinear_threshold(self, bbo):
        lo, hi = collinear_threshold(bbo, LAMBDA_P)
        assert cone_angle(bbo, LAMBDA_P, lo) < 1e-5
        assert cone_angle(bbo, LAMBDA_P, hi) < 1e-5

    def test_forbidden_regime_raises(self, bbo):
        with pytest.raises(RegimeError):
            cone_angle(bbo, LAMBDA_P, 0.3)

    def test_monotone_up_to_index_minimum(self, bbo):
        lo, _ = collinear_threshold(bbo, LAMBDA_P)
        # n_p(phi0) is minimal at phi0 = pi/2; theta0 grows until there
        grid = np.linspace(lo + 1e-3, math.pi / 2, 40)
        values = [cone_angle(bbo, LAMBDA_P, p) for p in grid]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


class TestCollinearThreshold:
    def test_window_endpoints(self, bbo):
        lo, hi = collinear_threshold(bbo, LAMBDA_P)
        assert lo == pytest.approx(0.5033045741583595, abs=1e-9)
        assert hi == pytest.approx(2.638288079431433, abs=1e-9)

    def test_root_residual(self, bbo):
        lo, hi = collinear_threshold(bbo, LAMBDA_P)
        for root in (lo, hi):
            resid = pump_index(bbo, LAMBDA_P, 0.0, 0.0, root) - N_O_DOWN
            assert abs(resid) < 1e-8

    def test_sign_pattern_positive_negative_positive(self, bbo):
        lo, hi = collinear_threshold(bbo, LAMBDA_P)
        signs = []
        for p in np.linspace(0.0, math.pi, 100):
            d = pump_index(bbo, LAMBDA_P, 0.0, 0.0, p) - N_O_DOWN
            if abs(d) > 1e-6:
                s = 1 if d > 0 else -1
                if not signs or signs[-1] != s:
                    signs.append(s)
        assert signs == [1, -1, 1]
        assert 0.0 < lo < hi < math.pi


class TestDerivedScales:
    def test_reference_scales(self, ref_scales):
        s = ref_scales
        assert s.theta0 == pytest.approx(0.2800911176503974, abs=1e-12)
        assert s.zeta == pytest.approx(0.12494468891287291, abs=1e-12)
        assert s.n_o == pytest.approx(N_O_DOWN, abs=1e-12)
        assert s.a == 2.0 * math.pi
        assert s.b == pytest.approx(3.14154234838055e-4, rel=1e-12)

    def test_constant_phase(self, ref_scales):
        # frozen from an independent evaluation of -pi theta0^2 L / (2 n_o lambda_p)
        assert ref_scales.phi_const == pytest.approx(-917.0121942608891, rel=1e-12)
        assert ref_scales.phi_const == pytest.approx(-900.0, rel=0.10)

    def test_constant_phase_identity(self, ref_scales, ref_config):
        s = ref_scales
        expected = -math.pi * s.theta0**2 * ref_config.L / (
            2.0 * s.n_o * ref_config.lambda_p
        )
        assert s.phi_const == pytest.approx(expected, rel=1e-14)

    def test_entanglement_scale_estimate(self, ref_scales, ref_config):
        r = math.pi**2 * ref_scales.theta0 * ref_config.w / ref_config.lambda_p
        assert r == pytest.approx(1e4, rel=0.1)

    def test_plane_wave_limit(self, bbo):
        cfg = ExperimentConfig(LAMBDA_P, 1e12, 5000.0, 0.7, bbo)
        s = derive_scales(cfg)
        assert s.dtheta_p < 1e-12
        assert s.b < 1e-11

    def test_ring_thickness(self, ref_scales):
        s = ref_scales
        assert s.ring_thickness == s.dtheta_L / s.theta0
        # n_o lambda_p / (pi L theta0) at the reference config
        assert s.ring_thickness == pytest.approx(
            N_O_DOWN * LAMBDA_P / (math.pi * 5000.0 * 0.2800911176503974), rel=1e-12
        )

    def test_positivity_and_ordering(self, ref_scales):
        s = ref_scales
        assert s.dtheta_p > 0 and s.dtheta_L > 0
        assert s.a > s.b

    def test_regime_error_propagates(self, bbo):
        cfg = ExperimentConfig(LAMBDA_P, 1464.0, 5000.0, 0.3, bbo)
        with pytest.raises(RegimeError):
            derive_scales(cfg)


class TestExperimentConfig:
    def test_rejects_nonpositive_lengths(self, bbo):
        with pytest.raises(ConfigError):
            ExperimentConfig(LAMBDA_P, -1.0, 5000.0, 0.7, bbo)
        with pytest.raises(ConfigError):
            ExperimentConfig(LAMBDA_P, 1464.0, 0.0, 0.7, bbo)

    def test_rejects_out_of_range_wavelength(self, bbo):
        # 2 * lambda_p must also be inside the dispersion validity range
        with pytest.raises((ConfigError, WavelengthRangeError)):
            ExperimentConfig(0.9, 1464.0, 5000.0, 0.7, bbo)


class TestCrystalLoading:
    def test_builtin_is_negative_uniaxial(self, bbo):
        assert bbo.name == "BBO"
        assert bbo.provenance

    def test_load_by_path_roundtrip(self, tmp_path, bbo):
        text = (
            "name = custom\n"
            "provenance = local copy for tests\n"
            "valid_min_um = 0.205\n"
            "valid_max_um = 1.06\n"
            "ordinary_A = 2.7359\n"
            "ordinary_B = 0.01878\n"
            "ordinary_C = 0.01822\n"
            "ordinary_D = 0.01354\n"
            "extraordinary_A = 2.3753\n"
            "extraordinary_B = 0.01224\n"
            "extraordinary_C = 0.01667\n"
            "extraordinary_D = 0.01516\n"
        )
        p = tmp_path / "custom.crystal"
        p.write_text(text)
        c = load_crystal(p)
        assert ordinary_index(c, LAMBDA_P) == pytest.approx(N_O_PUMP, abs=1e-12)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError):
            load_crystal("quartzite")

    def test_positive_uniaxial_rejected(self, tmp_path):
        text = (
            "name = flipped\n"
            "valid_min_um = 0.205\n"
            "valid_max_um = 1.06\n"
            "ordinary_A = 2.3753\n"
            "ordinary_B = 0.01224\n"
            "ordinary_C = 0.01667\n"
            "ordinary_D = 0.01516\n"
            "extraordinary_A = 2.7359\n"
            "extraordinary_B = 0.01878\n"
            "extraordinary_C = 0.01822\n"
            "extraordinary_D = 0.01354\n"
        )
        p = tmp_path / "flipped.crystal"
        p.write_text(text)
        with pytest.raises(ConfigError):
            load_crystal(p)
