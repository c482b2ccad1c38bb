"""Geometry, phase mismatch, amplitudes, Gaussian fit, validity report."""

import csv
import math

import numpy as np
import pytest

from biphoton import (
    AmplitudeKind,
    AmplitudeModel,
    AngularPair,
    AzimuthMode,
    ConfigError,
    DegenerateGeometryError,
    GeometryMode,
    RegimeError,
    amplitude,
    probability_density,
    pump_azimuth_cos,
    pump_polar_angle,
    transverse_sum_diff,
    validity_report,
)
from biphoton.amplitude import (
    EXP_MASK_MIN_SIZE,
    SINC_GAUSS_HALF_MAX,
    _pump_and_sinc_terms,
    exp_inplace,
    export_grid_csv,
)

LAMBDA_P = 0.4047
THETA0 = 0.2800911176503974


def _random_pairs(scales, rng, n, dev=0.01, alpha0_span=1.4):
    t0 = scales.theta0
    a0 = rng.uniform(-alpha0_span, alpha0_span, n)
    da = rng.uniform(-dev, dev, n)
    return AngularPair(
        theta1=t0 + rng.uniform(-dev, dev, n),
        theta2=t0 + rng.uniform(-dev, dev, n),
        alpha1=a0 + 0.5 * da,
        alpha2=a0 - 0.5 * da,
    )


def _plain_g_and_x(pair, s):
    """Pump exponent g and walk-off-inclusive sinc argument x, each written
    out on its own as the amplitude formulas state them."""
    th1 = np.asarray(pair.theta1, dtype=float)
    th2 = np.asarray(pair.theta2, dtype=float)
    t0 = s.theta0
    g = ((th1 - th2) ** 2 + t0 * t0 * pair.alpha_diff**2) / (2.0 * s.dtheta_p**2)
    al0 = pair.alpha0
    core = t0 * (th1 + th2 - 2.0 * t0) - (s.n_o / s.n_p0) * s.zeta * (
        np.cos(al0) * (th1 - th2) - t0 * np.sin(al0) * pair.alpha_diff
    )
    return g, core / (2.0 * s.dtheta_L)


class TestAngularPair:
    def test_polar_range_enforced(self):
        with pytest.raises(ConfigError):
            AngularPair(-0.1, 0.2, 0.0, 0.0)
        with pytest.raises(ConfigError):
            AngularPair(0.2, 3.5, 0.0, 0.0)

    def test_nan_polar_angle_rejected(self, tmp_path, ref_scales):
        with pytest.raises(ConfigError):
            AngularPair(math.nan, THETA0, 0.0, 0.0)
        theta = np.array([THETA0, math.nan])
        model = AmplitudeModel(AmplitudeKind.FULL, ref_scales)
        with pytest.raises(ConfigError):
            export_grid_csv(tmp_path / "grid.csv", model, theta, np.zeros(3))

    def test_polar_arrays_checked_whole(self):
        AngularPair(np.array([]), np.empty((0, 3)), 0.0, 0.0)  # nothing to reject
        AngularPair(np.array([0.0, math.pi]), THETA0, 0.0, 0.0)  # both ends allowed
        for bad in ([THETA0, math.nan], [math.nan, math.nan], [THETA0, -1e-300],
                    [math.inf, THETA0]):
            with pytest.raises(ConfigError, match="theta2"):
                AngularPair(THETA0, np.array(bad).reshape(2, 1), 0.0, 0.0)

    def test_alpha_helpers(self):
        p = AngularPair(0.3, 0.3, 0.4, 0.1)
        assert p.alpha0 == pytest.approx(0.25)
        assert p.alpha_diff == pytest.approx(0.3)

    def test_transposed_swaps_and_shifts(self):
        p = AngularPair(0.31, 0.29, 0.4, 0.1)
        t = p.transposed()
        assert (t.theta1, t.theta2) == (0.29, 0.31)
        assert t.alpha1 == pytest.approx(0.1 + math.pi)
        assert t.alpha2 == pytest.approx(0.4 + math.pi)


class TestTransverseSumDiff:
    def test_back_to_back_sum_zero(self):
        p = AngularPair(THETA0, THETA0, 0.37, 0.37)
        sum_sq, diff_sq = transverse_sum_diff(p, LAMBDA_P, GeometryMode.EXACT)
        assert sum_sq == pytest.approx(0.0, abs=1e-18)
        assert diff_sq > 0.0

    def test_on_cone_small_split(self):
        delta = 1e-3
        p = AngularPair(THETA0, THETA0, 0.5 * delta, -0.5 * delta)
        expected = (math.pi / LAMBDA_P) ** 2 * THETA0**2 * delta**2
        s_small, _ = transverse_sum_diff(p, LAMBDA_P, GeometryMode.SMALL_ANGLE)
        assert s_small == pytest.approx(expected, rel=1e-12)
        s_exact, _ = transverse_sum_diff(p, LAMBDA_P, GeometryMode.EXACT)
        # exact geometry replaces theta0 by sin(theta0): ~2.6% lower
        assert s_exact == pytest.approx(expected, rel=0.03)

    def test_nonnegative_on_random_grid(self, ref_scales):
        rng = np.random.default_rng(11)
        p = _random_pairs(ref_scales, rng, 500)
        for mode in GeometryMode:
            s, d = transverse_sum_diff(p, LAMBDA_P, mode)
            assert np.all(s >= 0.0) and np.all(d >= 0.0)

    def test_exact_vs_small_angle_measured_bound(self, ref_scales):
        # The relative gap between the geometries has an O(theta0^2) floor
        # (~8% on the sum combination at theta0 = 0.28); this freezes the
        # measured bound. The second-order *convergence* of the gap in the
        # deviation scale is asserted separately below.
        rng = np.random.default_rng(7)
        p = _random_pairs(ref_scales, rng, 4000, dev=0.01, alpha0_span=0.0)
        se, de = transverse_sum_diff(p, LAMBDA_P, GeometryMode.EXACT)
        ss, ds = transverse_sum_diff(p, LAMBDA_P, GeometryMode.SMALL_ANGLE)
        assert np.max(np.abs(ss - se) / np.abs(se)) < 0.10
        assert np.max(np.abs(ds - de) / de) < 0.05

    def test_second_order_convergence(self, ref_scales):
        t0 = ref_scales.theta0
        rng = np.random.default_rng(3)
        u1, u2, v = (rng.uniform(-1, 1, 2000) for _ in range(3))
        eps_list = [0.02, 0.01, 0.005, 0.0025]
        errs = []
        for eps in eps_list:
            p = AngularPair(
                t0 + eps * u1, t0 + eps * u2, 0.5 * eps * v, -0.5 * eps * v
            )
            se, _ = transverse_sum_diff(p, LAMBDA_P, GeometryMode.EXACT)
            ss, _ = transverse_sum_diff(p, LAMBDA_P, GeometryMode.SMALL_ANGLE)
            errs.append(np.max(np.abs(ss - se)))
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)


class TestPumpPolarAngle:
    def test_zero_for_back_to_back(self, ref_scales):
        p = AngularPair(THETA0, THETA0, 0.2, 0.2)
        assert pump_polar_angle(p, LAMBDA_P, ref_scales.n_p0) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_hand_evaluated_point(self, ref_scales):
        # theta1 = theta0 + 1e-3, theta2 = theta0, equal azimuths:
        # |k1+k2| = (pi/lambda_p) |sin theta1 - sin theta2|, so
        # phi_p = |sin theta1 - sin theta2| / (2 n_p) = 2.93554495e-4
        p = AngularPair(THETA0 + 1e-3, THETA0, 0.0, 0.0)
        got = pump_polar_angle(p, LAMBDA_P, ref_scales.n_p0)
        assert got == pytest.approx(0.000293554495334625, rel=1e-10)
        # small-angle estimate dtheta / (2 n_p) agrees to O(theta0^2)
        assert got == pytest.approx(1e-3 / (2.0 * ref_scales.n_p0), rel=0.05)

    def test_linear_scaling(self, ref_scales):
        p1 = AngularPair(THETA0 + 1e-4, THETA0, 0.0, 0.0)
        p2 = AngularPair(THETA0 + 2e-4, THETA0, 0.0, 0.0)
        r = pump_polar_angle(p2, LAMBDA_P, ref_scales.n_p0) / pump_polar_angle(
            p1, LAMBDA_P, ref_scales.n_p0
        )
        assert r == pytest.approx(2.0, rel=1e-3)


class TestPumpAzimuthCos:
    def test_linearized_polar_split_gives_one(self):
        p = AngularPair(THETA0 + 1e-3, THETA0 - 1e-3, 0.0, 0.0)
        got = pump_azimuth_cos(p, AzimuthMode.LINEARIZED, theta0=THETA0)
        assert got == pytest.approx(1.0, abs=1e-15)

    def test_exact_vs_linearized_grid(self, ref_scales):
        rng = np.random.default_rng(7)
        p = _random_pairs(ref_scales, rng, 4000)
        ce = pump_azimuth_cos(p, AzimuthMode.EXACT)
        cl = pump_azimuth_cos(p, AzimuthMode.LINEARIZED, theta0=ref_scales.theta0)
        # measured bound ~0.03 at deviations 0.01 around theta0 = 0.28
        assert np.max(np.abs(ce - cl)) < 0.05

    def test_back_to_back_raises(self):
        p = AngularPair(THETA0, THETA0, 0.3, 0.3)
        with pytest.raises(DegenerateGeometryError):
            pump_azimuth_cos(p, AzimuthMode.EXACT)

    def test_result_clamped(self, ref_scales):
        rng = np.random.default_rng(5)
        p = _random_pairs(ref_scales, rng, 1000)
        for mode in (AzimuthMode.EXACT,):
            c = pump_azimuth_cos(p, mode)
            assert np.all(np.abs(c) <= 1.0)

    def test_back_substitution_residual(self, ref_scales):
        # the exact solution must satisfy the defining projection identity
        # sin(t1) sin(a1 - ap) - sin(t2) sin(a2 - ap) = 0
        rng = np.random.default_rng(19)
        p = _random_pairs(ref_scales, rng, 2000)
        cos_ap = pump_azimuth_cos(p, AzimuthMode.EXACT)
        s1, s2 = np.sin(np.asarray(p.theta1)), np.sin(np.asarray(p.theta2))
        den = np.sqrt(s1**2 + s2**2 - 2 * s1 * s2 * np.cos(p.alpha_diff))
        sin_ap = (s1 * np.sin(p.alpha1) - s2 * np.sin(p.alpha2)) / den
        ap = np.arctan2(sin_ap, cos_ap)
        resid = s1 * np.sin(np.asarray(p.alpha1) - ap) - s2 * np.sin(
            np.asarray(p.alpha2) - ap
        )
        assert np.max(np.abs(resid)) < 1e-10


def _phase_mismatch(pair, scales, config, walkoff):
    # linearized longitudinal mismatch Delta, um^-1: the sinc argument is L Delta / 2
    return 2.0 / config.L * _pump_and_sinc_terms(pair, scales, walkoff)[1]


class TestPhaseMismatch:
    def test_zero_on_cone(self, ref_scales, ref_config):
        p = AngularPair(THETA0, THETA0, 0.4, 0.4)
        d = _phase_mismatch(p, ref_scales, ref_config, walkoff=False)
        assert d == pytest.approx(0.0, abs=1e-15)

    def test_constant_phase_matches_scales(self, ref_scales, ref_config):
        # L/2 times the constant part of the mismatch is the sinc constant
        assert ref_scales.phi_const == pytest.approx(-900.0, rel=0.10)
        delta0 = 2.0 * ref_scales.phi_const / ref_config.L
        expected = -math.pi * ref_scales.theta0**2 / (
            ref_scales.n_o * ref_config.lambda_p
        )
        assert delta0 == pytest.approx(expected, rel=1e-12)

    def test_walkoff_contribution_sign_and_value(self, ref_scales, ref_config):
        p = AngularPair(THETA0 + 1e-3, THETA0 - 1e-3, 0.0, 0.0)
        d_nwo = _phase_mismatch(p, ref_scales, ref_config, walkoff=False)
        d_full = _phase_mismatch(p, ref_scales, ref_config, walkoff=True)
        expected = -(
            math.pi * ref_scales.zeta / (LAMBDA_P * ref_scales.n_p0)
        ) * 2e-3
        assert d_full - d_nwo == pytest.approx(expected, rel=1e-12)

    def test_dropped_quadratic_term_is_small(self, ref_config, ref_scales):
        # the quadratic azimuthal term at the coincidence width equals the
        # diffraction ratio L / (8 n_o L_D) and must be << 1
        report = validity_report(ref_config, ref_scales)
        dal = ref_scales.dtheta_p / ref_scales.theta0
        dropped = (
            ref_scales.theta0**2 * dal**2 / (8.0 * ref_scales.dtheta_L)
        ) * (2.0 * ref_scales.dtheta_L / ref_scales.theta0**2)  # -> L/(8 n_o L_D) scale
        assert report.diffraction_ratio == pytest.approx(
            2.2625644360578882e-05, rel=1e-9
        )
        assert report.diffraction_ratio < 1e-3
        assert dropped < 1e-3


class TestAmplitude:
    def test_nwo_peak_normalized(self, ref_scales):
        model = AmplitudeModel(AmplitudeKind.NWO, ref_scales)
        p = AngularPair(THETA0, THETA0, 0.9, 0.9)
        assert amplitude(model, p) == pytest.approx(1.0, abs=1e-15)

    def test_full_with_zero_walkoff_equals_nwo(self, ref_scales):
        rng = np.random.default_rng(23)
        p = _random_pairs(ref_scales, rng, 2000, dev=0.002)
        full0 = AmplitudeModel(AmplitudeKind.FULL, ref_scales).without_walkoff()
        nwo = AmplitudeModel(AmplitudeKind.NWO, ref_scales)
        assert np.max(np.abs(amplitude(full0, p) - amplitude(nwo, p))) < 1e-12

    def test_transposition_symmetry(self, ref_scales):
        rng = np.random.default_rng(29)
        p = _random_pairs(ref_scales, rng, 2000, dev=0.002)
        model = AmplitudeModel(AmplitudeKind.FULL, ref_scales)
        a = amplitude(model, p)
        at = amplitude(model, p.transposed())
        assert np.max(np.abs(a - at)) < 1e-12

    def test_nwo_depends_only_on_azimuth_difference(self, ref_scales):
        rng = np.random.default_rng(31)
        p = _random_pairs(ref_scales, rng, 1000, dev=0.002)
        shift = 0.77
        shifted = AngularPair(
            p.theta1, p.theta2,
            np.asarray(p.alpha1) + shift, np.asarray(p.alpha2) + shift,
        )
        model = AmplitudeModel(AmplitudeKind.NWO, ref_scales)
        # rounding of the shifted azimuth difference inside the steep
        # Gaussian costs a couple of digits; the dependence itself is exact
        assert np.max(np.abs(amplitude(model, p) - amplitude(model, shifted))) < 1e-12

    def test_nwo_factorization_identity(self, ref_scales):
        # Psi(t, a) Psi(t', a') == Psi(t, a') Psi(t', a): polar and
        # azimuthal dependencies factorize in the NWO amplitude
        rng = np.random.default_rng(37)
        model = AmplitudeModel(AmplitudeKind.NWO, ref_scales)
        t0 = ref_scales.theta0
        n = 500
        th1, th2 = (t0 + rng.uniform(-2e-3, 2e-3, n) for _ in range(2))
        tp1, tp2 = (t0 + rng.uniform(-2e-3, 2e-3, n) for _ in range(2))
        da, dap = (rng.uniform(-2e-3, 2e-3, n) for _ in range(2))

        def psi(t1, t2, d):
            return amplitude(
                model, AngularPair(t1, t2, 0.5 * d, -0.5 * d)
            )

        lhs = psi(th1, th2, da) * psi(tp1, tp2, dap)
        rhs = psi(th1, th2, dap) * psi(tp1, tp2, da)
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_full_breaks_azimuth_shift_invariance(self, ref_scales):
        # walk-off couples to alpha0, so the FULL amplitude must change;
        # stay on the sinc ridge and inside the pump Gaussian
        p = AngularPair(THETA0 + 4e-5, THETA0 - 4e-5, 0.0, 0.0)
        shifted = AngularPair(THETA0 + 4e-5, THETA0 - 4e-5, 1.0, 1.0)
        model = AmplitudeModel(AmplitudeKind.FULL, ref_scales)
        assert abs(amplitude(model, p) - amplitude(model, shifted)) > 1e-6


def _gauss_fit(target, fit_range=math.pi):
    """(c, rms misfit) of the unweighted least-squares fit of exp(-c x^2) to
    target(x) on 2,001 uniform points over [-fit_range, fit_range]."""
    from scipy.optimize import least_squares

    x = np.linspace(-fit_range, fit_range, 2001)
    y = target(x)
    c = float(least_squares(lambda c: np.exp(-c[0] * x * x) - y, x0=[0.35]).x[0])
    return c, float(np.sqrt(np.mean((np.exp(-c * x * x) - y) ** 2)))


def _sinc_sq(x):
    return np.sinc(x / math.pi) ** 2


class TestSincGaussFit:
    """The least-squares constant that the half-maximum 0.359 is not
    (criterion 05)."""

    def test_default_fit_value_frozen(self):
        # unweighted least squares of exp(-c x^2) against sinc^2 on |x|<=pi;
        # frozen from an independent run of the same published criterion
        c, resid = _gauss_fit(_sinc_sq)
        assert c == pytest.approx(0.38140269714190805, abs=1e-6)
        assert 0.0 < resid < 0.05

    def test_self_fit_recovers_exponent(self):
        c, resid = _gauss_fit(lambda x: np.exp(-0.5 * x * x))
        assert c == pytest.approx(0.5, abs=1e-10)
        assert resid < 1e-9

    def test_residual_shrinks_with_range(self):
        resids = [_gauss_fit(_sinc_sq, fit_range=r)[1] for r in (math.pi, 2.0, 1.0, 0.5)]
        assert all(r2 < r1 for r1, r2 in zip(resids, resids[1:]))


def _assert_bits_equal(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestExpInplace:
    SPECIAL = [-745.13, -745.1332191019411, -745.1332191019412, -746.0, -746.1,
               -np.inf, np.nan, -0.0, 0.0, 709.0, -708.5, -1e300]

    @pytest.mark.parametrize("size", [EXP_MASK_MIN_SIZE - 1, 5 * EXP_MASK_MIN_SIZE])
    def test_bit_for_bit_np_exp_in_place(self, size):
        # arguments spanning [-800, 5] plus the special values, in arrays on
        # both sides of the size at which the underflow mask starts
        rng = np.random.default_rng(size)
        x = np.concatenate((np.linspace(-800.0, 5.0, size - len(self.SPECIAL)),
                            self.SPECIAL))
        rng.shuffle(x)
        for arg in (x, np.full(size, -800.0), x[x > -700]):
            buf = arg.copy()
            assert exp_inplace(buf) is buf
            _assert_bits_equal(buf, np.exp(arg))
        # np.exp takes another loop, with other last bits, on strided
        # arrays; views are compared with np.exp(view, out=view)
        for view in (lambda a: a.reshape(-1, 1)[::-1], lambda a: a[::3]):
            buf, expected = view(x.copy()), view(x.copy())
            np.exp(expected, out=expected)
            assert exp_inplace(buf) is buf
            _assert_bits_equal(buf, expected)

    def test_zero_dimensional_empty_and_scalar(self):
        for v in self.SPECIAL:
            buf = np.array(v)
            assert exp_inplace(buf) is buf
            _assert_bits_equal(buf, np.exp(np.array(v)))
        empty = np.empty((0, 4))
        assert exp_inplace(empty) is empty
        assert exp_inplace(np.float64(-800.0)) == 0.0
        assert exp_inplace(1.0) == np.exp(1.0)


class TestProbabilityDensity:
    @staticmethod
    def _polar_plane(s, n, width_factor):
        # criterion 10's (tau, d) plane, its d axis widened by width_factor
        t0 = s.theta0
        sig_tau = 2.0 * s.dtheta_L / (math.sqrt(0.359) * t0)
        shift = (s.n_o / s.n_p0) * s.zeta * (0.01 * 2.0 + t0 * 8.0 * s.b) / t0
        tau = np.linspace(-12 * sig_tau - 2 * shift, 12 * sig_tau + 2 * shift, n)
        d = np.linspace(-10 * s.dtheta_p, 10 * s.dtheta_p, n) * width_factor
        tt, dd = np.meshgrid(tau, d, indexing="ij")
        return t0 + 0.5 * (tt + dd), t0 + 0.5 * (tt - dd)

    @pytest.mark.parametrize("width_factor", [1.0, 30.0])
    def test_double_gaussian_bits_of_the_plain_formula(self, ref_scales, width_factor):
        # exp(-2 g) * exp(-c x^2) with plain np.exp, on criterion 10's plane
        # and on one wide enough that exp(-2 g) underflows on most of it
        s = ref_scales
        th1, th2 = self._polar_plane(s, 401, width_factor)
        model = AmplitudeModel(AmplitudeKind.DOUBLE_GAUSSIAN, s)
        for dal, al0 in ((0.0, 0.3), (-2.0 * s.b, -1.0), (2.5 * s.b, 1.2)):
            pair = AngularPair(th1, th2, al0 + 0.5 * dal, al0 - 0.5 * dal)
            g, x = _plain_g_and_x(pair, s)
            expected = np.exp(-2.0 * g) * np.exp(-SINC_GAUSS_HALF_MAX * x * x)
            _assert_bits_equal(probability_density(model, pair), expected)
        if width_factor > 1.0:
            assert np.mean(-2.0 * g <= -746.0) > 0.5

    @staticmethod
    def _plain_density(model, pair):
        """probability_density for every kind, written out one new array
        per operation as the amplitude formulas state them."""
        s = model.scales
        th1 = np.asarray(pair.theta1, dtype=float)
        th2 = np.asarray(pair.theta2, dtype=float)
        dth = th1 - th2
        dal = pair.alpha_diff
        t0 = s.theta0
        g = (dth**2 + t0 * t0 * dal**2) / (2.0 * s.dtheta_p**2)
        core = t0 * (th1 + th2 - 2.0 * t0)
        if model.kind is not AmplitudeKind.NWO:
            al0 = pair.alpha0
            core = core - (s.n_o / s.n_p0) * s.zeta * (
                np.cos(al0) * dth - t0 * np.sin(al0) * dal
            )
        x = core / (2.0 * s.dtheta_L)
        if model.kind is AmplitudeKind.DOUBLE_GAUSSIAN:
            return np.exp(-2.0 * g) * np.exp(-SINC_GAUSS_HALF_MAX * x * x)
        return (np.exp(-g) * np.sinc(x / math.pi)) ** 2

    @pytest.mark.parametrize("shape", ["polar_plane", "azimuth_axis", "scalars"])
    def test_every_kind_bits_of_the_plain_expressions(self, ref_scales, shape):
        # a 401^2 polar plane with scalar azimuths (criterion 10), scalar
        # polar angles with 51 azimuths (export_grid_csv), and all scalars
        s = ref_scales
        if shape == "polar_plane":
            th1, th2 = self._polar_plane(s, 401, 1.0)
            dal, al0 = 1.5 * s.b, -0.7
        elif shape == "azimuth_axis":
            th1, th2 = s.theta0 + 2e-5, s.theta0 - 1e-5
            dal, al0 = np.linspace(-4.0 * s.b, 4.0 * s.b, 51), 0.9
        else:
            th1, th2, dal, al0 = s.theta0 + 2e-5, s.theta0 - 1e-5, 1.5 * s.b, 0.9
        pair = AngularPair(th1, th2, al0 + 0.5 * dal, al0 - 0.5 * dal)
        inputs = [np.copy(v) for v in (pair.theta1, pair.theta2, pair.alpha1, pair.alpha2)]
        for kind in AmplitudeKind:
            model = AmplitudeModel(kind, s)
            got, expected = probability_density(model, pair), self._plain_density(model, pair)
            assert type(got) is type(expected)
            _assert_bits_equal(got, expected)
        after = (pair.theta1, pair.theta2, pair.alpha1, pair.alpha2)
        for before, now in zip(inputs, after):
            _assert_bits_equal(np.asarray(now), before)
        full0 = AmplitudeModel(AmplitudeKind.FULL, s).without_walkoff()
        nwo = AmplitudeModel(AmplitudeKind.NWO, s)
        _assert_bits_equal(probability_density(full0, pair), probability_density(nwo, pair))

    def test_scalar_pair_gives_a_scalar(self, ref_scales):
        model = AmplitudeModel(AmplitudeKind.DOUBLE_GAUSSIAN, ref_scales)
        p = AngularPair(THETA0 + 1e-4, THETA0, 0.3, 0.3 - 2e-4)
        got = probability_density(model, p)
        assert isinstance(got, np.float64)
        g, x = _plain_g_and_x(p, ref_scales)
        assert got == np.exp(-2.0 * g) * np.exp(-0.359 * x * x)

    def test_peak_value(self, ref_scales):
        model = AmplitudeModel(AmplitudeKind.DOUBLE_GAUSSIAN, ref_scales)
        p = AngularPair(THETA0, THETA0, 0.2, 0.2)
        assert probability_density(model, p) == pytest.approx(1.0, abs=1e-15)

    def test_one_over_e_at_coincidence_width(self, ref_scales):
        dal = ref_scales.dtheta_p / ref_scales.theta0
        model = AmplitudeModel(AmplitudeKind.DOUBLE_GAUSSIAN, ref_scales)
        p = AngularPair(THETA0, THETA0, 0.5 * dal, -0.5 * dal)
        assert probability_density(model, p) == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_bounded_by_one_and_squares_amplitude(self, ref_scales):
        rng = np.random.default_rng(41)
        p = _random_pairs(ref_scales, rng, 2000, dev=0.003)
        model = AmplitudeModel(AmplitudeKind.DOUBLE_GAUSSIAN, ref_scales)
        dens = probability_density(model, p)
        assert np.all(dens <= 1.0 + 1e-15) and np.all(dens >= 0.0)
        amp = amplitude(model, p)
        assert np.max(np.abs(amp**2 - dens)) < 1e-14

    def test_marginal_is_azimuthal_gaussian(self, ref_scales):
        # quadrature over (theta1, theta2) of the walk-off-inclusive density
        # must reduce to exp(-(a1-a2)^2 theta0^2 / dtheta_p^2); light version
        # of the acceptance quadrature
        s = ref_scales
        model = AmplitudeModel(AmplitudeKind.DOUBLE_GAUSSIAN, s)
        t0 = s.theta0
        c = 0.359
        sig_tau = 2.0 * s.dtheta_L / (math.sqrt(c) * t0)
        n = 241
        tau = np.linspace(-12 * sig_tau, 12 * sig_tau, n)
        d = np.linspace(-10 * s.dtheta_p, 10 * s.dtheta_p, n)
        TT, DD = np.meshgrid(tau, d, indexing="ij")

        def marginal(dal, al0):
            pair = AngularPair(
                t0 + 0.5 * (TT + DD), t0 + 0.5 * (TT - DD),
                al0 + 0.5 * dal, al0 - 0.5 * dal,
            )
            return probability_density(model, pair).sum()

        base = marginal(0.0, 0.3)
        for dal in (-2.0 * s.b, 0.7 * s.b, 2.5 * s.b):
            for al0 in (-1.0, 0.3):
                got = marginal(dal, al0) / base
                expect = math.exp(-(t0 * dal) ** 2 / s.dtheta_p**2)
                assert abs(got - expect) / expect < 1e-3


class TestValidityReport:
    def test_reference_values(self, ref_config, ref_scales):
        rep = validity_report(ref_config, ref_scales)
        d = rep.to_dict()
        assert d["L_over_8_no_LD"] == pytest.approx(2.2625644360578882e-05, rel=1e-9)
        assert d["no_lambda_over_pi_L_theta0_sq"] == pytest.approx(
            5.452490197286847e-04, rel=1e-9
        )
        assert d["L_threshold_um"] == pytest.approx(2.7262450986434232, rel=1e-9)
        assert all(flag == "pass" for flag in d["flags"].values())

    def test_linearization_ratio_far_below_warning(self, ref_config, ref_scales):
        rep = validity_report(ref_config, ref_scales)
        assert rep.linearization_ratio < 0.01

    def test_collinear_raises(self, ref_config, ref_scales):
        import dataclasses

        collinear = dataclasses.replace(ref_scales, theta0=0.0)
        with pytest.raises(RegimeError, match="collinear"):
            validity_report(ref_config, collinear)


class TestGridExport:
    @pytest.mark.parametrize("kind", list(AmplitudeKind))
    def test_bytes_match_per_pair_csv_writer(self, tmp_path, ref_scales, csv_reference,
                                             kind):
        # the grid as csv.writer writes it from one probability_density call
        # per (theta1, theta2) pair, each field formatted on its own
        model = AmplitudeModel(kind, ref_scales)
        theta = THETA0 + np.linspace(-4e-4, 4e-4, 9)
        dalpha = np.linspace(-1.2e-3, 1.2e-3, 31)
        alpha0 = 0.4
        path = tmp_path / "grid.csv"
        export_grid_csv(path, model, theta, dalpha, alpha0)
        a1, a2 = alpha0 + 0.5 * dalpha, alpha0 - 0.5 * dalpha

        def rows():
            for t1 in theta.tolist():
                for t2 in theta.tolist():
                    pair = AngularPair(np.full(a1.shape, t1), np.full(a1.shape, t2), a1, a2)
                    vals = probability_density(model, pair)
                    for row in zip(a1.tolist(), a2.tolist(), vals.tolist()):
                        yield [t1, t2, *row]

        expected = csv_reference(["theta1", "theta2", "alpha1", "alpha2", "value"], rows())
        assert path.read_bytes() == expected
        assert expected.count(b"\r\n") == 1 + 9 * 9 * 31

    def test_bad_theta_leaves_no_file(self, tmp_path, ref_scales):
        # theta is checked before the file is opened: no truncated grid is
        # left behind, and a file already at the path keeps its bytes
        model = AmplitudeModel(AmplitudeKind.DOUBLE_GAUSSIAN, ref_scales)
        fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
        existing.write_bytes(b"theta1,theta2\r\nkept\r\n")
        for bad in (np.array([THETA0, math.nan]), np.array([THETA0, 4.0])):
            for path in (fresh, existing):
                with pytest.raises(ConfigError, match="theta"):
                    export_grid_csv(path, model, bad, np.zeros(3))
        assert not fresh.exists()
        assert existing.read_bytes() == b"theta1,theta2\r\nkept\r\n"

    def test_header_and_determinism(self, tmp_path, ref_scales):
        model = AmplitudeModel(AmplitudeKind.DOUBLE_GAUSSIAN, ref_scales)
        theta = np.linspace(THETA0 - 1e-3, THETA0 + 1e-3, 5)
        dalpha = np.linspace(-2e-3, 2e-3, 5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_grid_csv(p1, model, theta, dalpha)
        export_grid_csv(p2, model, theta, dalpha)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta1", "theta2", "alpha1", "alpha2", "value"]
        assert len(rows) == 1 + 25 * 5
        values = [float(r[4]) for r in rows[1:]]
        assert max(values) <= 1.0 + 1e-12
