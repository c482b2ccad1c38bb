"""Width ratio, Schmidt spectra (analytic, numeric SVD, OAM), Fourier checks."""

import math

import numpy as np
import pytest

from biphoton import (
    AzimuthalDistribution,
    ConfigError,
    RegimeError,
    ResolutionError,
    SchmidtMethod,
    azimuthal_density,
    azimuthal_widths,
    coefficient_check,
    oam_mode,
    oam_mode_gram,
    oam_spectrum,
    r_parameter,
    schmidt_analytic,
    schmidt_mode,
    schmidt_numeric,
)
from biphoton import analysis

# hand evaluation: dalpha_c = lambda_p / (pi w theta0) at the reference config
DALPHA_C = 3.14154234838055e-4
R_REFERENCE = 10000.160129018375


def _dg_kernel(a, b):
    def kernel(x, y):
        return np.exp(-((x + y) ** 2) / (2 * a * a) - ((x - y) ** 2) / (2 * b * b))

    return kernel


class TestAzimuthalWidths:
    def test_reference_widths(self, ref_dist):
        assert ref_dist.coincidence_width == pytest.approx(DALPHA_C, rel=1e-12)
        assert ref_dist.single_width == math.pi

    def test_doubling_waist_halves_width(self, ref_config, bbo):
        import dataclasses

        from biphoton import derive_scales

        wide = dataclasses.replace(ref_config, w=2.0 * ref_config.w)
        d2 = azimuthal_widths(derive_scales(wide))
        assert d2.coincidence_width == pytest.approx(0.5 * DALPHA_C, rel=1e-12)

    def test_widths_well_separated(self, ref_dist):
        assert ref_dist.single_width / ref_dist.coincidence_width > 10.0

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ConfigError):
            AzimuthalDistribution(coincidence_width=0.0)


class TestRParameter:
    def test_reference_value(self, ref_dist):
        r = r_parameter(ref_dist)
        assert r == pytest.approx(R_REFERENCE, rel=1e-12)
        assert r == pytest.approx(1e4, rel=0.1)

    def test_equals_schmidt_number_approximation(self, ref_dist, ref_scales):
        # R = pi / dalpha_c and K ~ a/2b with a = 2 pi, b = dalpha_c are the
        # same algebraic quantity
        r = r_parameter(ref_dist)
        k_approx = ref_scales.a / (2.0 * ref_scales.b)
        assert abs(r - k_approx) / r < 1e-12
        k_exact = (ref_scales.a**2 + ref_scales.b**2) / (
            2.0 * ref_scales.a * ref_scales.b
        )
        assert abs(r - k_exact) / r < 1.0 / r**2 * 2.0

    def test_identity_at_random_configs(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            dac = 10 ** rng.uniform(-5, -1)
            dist = AzimuthalDistribution(coincidence_width=dac)
            assert r_parameter(dist) == pytest.approx(
                (2.0 * math.pi) / (2.0 * dac), rel=1e-12
            )

    def test_equal_widths_give_unity(self):
        dist = AzimuthalDistribution(coincidence_width=math.pi)
        assert r_parameter(dist) == pytest.approx(1.0, rel=1e-15)


class TestSchmidtAnalytic:
    def test_separable_state(self):
        sp = schmidt_analytic(1.3, 1.3)
        assert sp.schmidt_number == 1.0
        assert sp.weights[0] == pytest.approx(1.0, abs=1e-15)
        assert np.all(sp.weights[1:] == 0.0)
        assert sp.entropy_bits == 0.0

    @pytest.mark.parametrize(
        "ratio,k_expected",
        [(5.0, 2.6), (20.0, 10.025), (50.0, 25.01)],
    )
    def test_closed_form_schmidt_number(self, ratio, k_expected):
        sp = schmidt_analytic(2.0 * math.pi, 2.0 * math.pi / ratio)
        assert sp.schmidt_number == pytest.approx(k_expected, rel=1e-12)

    def test_geometric_series_sums_to_one(self):
        sp = schmidt_analytic(2.0 * math.pi, 0.7)
        assert float(sp.weights.sum()) + sp.residual == pytest.approx(1.0, abs=1e-12)
        assert sp.residual < 1e-9

    def test_recompute_k_matches(self):
        a, b = 2.0 * math.pi, 0.21
        sp = schmidt_analytic(a, b)
        # 1/sum(w^2) over the truncated spectrum approaches the closed form
        assert sp.recompute_k() == pytest.approx(sp.schmidt_number, rel=1e-8)

    def test_entropy_monotone_in_ratio(self):
        ratios = [2.0, 5.0, 10.0, 30.0, 100.0, 1000.0]
        entropies = [
            schmidt_analytic(2.0 * math.pi, 2.0 * math.pi / r).entropy_bits
            for r in ratios
        ]
        assert all(e2 > e1 for e1, e2 in zip(entropies, entropies[1:]))

    def test_invalid_widths(self):
        with pytest.raises(ConfigError):
            schmidt_analytic(-1.0, 0.5)
        with pytest.raises(ConfigError):
            schmidt_analytic(1.0, 0.0)

    def test_mode_cap_warning(self, ref_scales):
        with pytest.warns(UserWarning, match="truncated"):
            sp = schmidt_analytic(ref_scales.a, ref_scales.b * 1e-3)
        assert sp.truncated


class TestSchmidtModes:
    def test_orthonormality_up_to_50(self):
        a, b = 2.0 * math.pi, 2.0 * math.pi / 50.0
        x = np.linspace(-40.0, 40.0, 20001)
        modes = np.array([schmidt_mode(n, a, b, x) for n in range(51)])
        gram = modes @ modes.T * (x[1] - x[0])
        assert np.max(np.abs(gram - np.eye(51))) < 1e-8

    def test_series_reconstructs_kernel(self):
        # sum_n sqrt(lambda_n) psi_n(x) psi_n(y) is proportional to the
        # double-Gaussian kernel; compare where the kernel is not tiny
        a, b = 2.0 * math.pi, 2.0 * math.pi / 50.0
        # amplitudes scale as sqrt(weight), so the default 1e-9 weight tail
        # is only ~3e-5 in amplitude; extend the series for a 1e-6 check
        sp = schmidt_analytic(a, b, n_max=1500)
        xs = np.linspace(-1.5, 1.5, 31)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        kern = np.exp(-((X + Y) ** 2) / (2 * a * a) - ((X - Y) ** 2) / (2 * b * b))
        rec = np.zeros_like(kern)
        for n, w in enumerate(sp.weights):
            m = schmidt_mode(n, a, b, xs)
            rec += math.sqrt(w) * np.outer(m, m)
        mask = kern > 1e-3
        scale = rec[mask][0] / kern[mask][0]
        assert np.max(np.abs(rec[mask] / kern[mask] - scale)) < 1e-6

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigError):
            schmidt_mode(-1, 1.0, 1.0, 0.0)


class TestSchmidtNumeric:
    def test_rank_one_kernel(self):
        def kernel(x, y):
            return np.exp(-(x**2)) * np.exp(-((y - 0.3) ** 2))

        sp = schmidt_numeric(kernel, -5.0, 5.0, 400)
        assert sp.schmidt_number == pytest.approx(1.0, abs=1e-10)
        assert sp.weights[0] == pytest.approx(1.0, abs=1e-10)

    def test_matches_analytic_at_moderate_ratio(self):
        a, b = 1.0, 0.2
        sp = schmidt_numeric(_dg_kernel(a, b), -4.0, 4.0, 800, feature_width=b)
        an = schmidt_analytic(a, b)
        m = min(len(sp.weights), len(an.weights), 60)
        assert np.max(np.abs(sp.weights[:m] - an.weights[:m])) < 1e-6
        assert abs(sp.schmidt_number - an.schmidt_number) / an.schmidt_number < 1e-6

    def test_resolution_error_names_required_points(self):
        with pytest.raises(ResolutionError) as exc:
            schmidt_numeric(_dg_kernel(1.0, 0.01), -4.0, 4.0, 100, feature_width=0.01)
        assert exc.value.required_points == math.ceil(8.0 * 8.0 / 0.01)

    def test_symmetric_kernel_modes_agree_up_to_sign(self):
        a, b = 1.0, 0.25
        sp, left, right = schmidt_numeric(
            _dg_kernel(a, b), -4.0, 4.0, 640, feature_width=b, return_modes=True
        )
        for i in range(5):
            u, v = left[:, i], right[i, :]
            assert min(np.max(np.abs(u - v)), np.max(np.abs(u + v))) < 1e-8

    def test_grid_refinement_converges(self):
        # |K_numeric - K_closed| must drop at least 2x per grid halving
        # until the quadrature floor
        a, b = 1.0, 0.1
        an = schmidt_analytic(a, b).schmidt_number
        errs = []
        for n in (660, 1320, 2640):
            sp = schmidt_numeric(_dg_kernel(a, b), -4.0, 4.0, n, feature_width=b)
            errs.append(abs(sp.schmidt_number - an) / an)
        floor = 1e-12
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 < 0.5 * e1 or e2 < floor

    def test_invalid_interval(self):
        with pytest.raises(ConfigError):
            schmidt_numeric(_dg_kernel(1.0, 0.5), 1.0, -1.0, 100)

    @pytest.mark.parametrize("n", [883, 884])
    def test_parity_split_matches_dense_eigvalsh(self, n):
        # the double Gaussian on [-4a, 4a] is centrosymmetric; build the
        # quadrature matrix as schmidt_numeric does and solve it densely
        a, b = 1.0, 1.0 / 13.0
        h = 8.0 * a / n
        x = -4.0 * a + (np.arange(n) + 0.5) * h
        mat = _dg_kernel(a, b)(x[:, None], x[None, :]) * h
        dense = np.linalg.eigvalsh(mat)
        split = np.sort(analysis._parity_eigvalsh(mat))
        assert len(split) == n
        assert np.max(np.abs(split - dense)) < 1e-13 * np.max(np.abs(dense))
        w = np.sort(dense**2)[::-1]
        w /= w.sum()
        k_dense = 1.0 / np.sum(w**2)
        sp = schmidt_numeric(_dg_kernel(a, b), -4.0 * a, 4.0 * a, n, feature_width=b)
        assert abs(sp.schmidt_number - k_dense) < 1e-12 * k_dense

    def test_centrosymmetric_kernel_takes_the_parity_split(self, monkeypatch):
        calls = []
        split = analysis._parity_eigvalsh
        monkeypatch.setattr(analysis, "_parity_eigvalsh",
                            lambda mat: calls.append(len(mat)) or split(mat))
        schmidt_numeric(_dg_kernel(1.0, 0.2), -4.0, 4.0, 321, feature_width=0.2)
        assert calls == [321]

    def test_symmetric_but_not_centrosymmetric_kernel_takes_dense_path(self, monkeypatch):
        # shifting the wide Gaussian breaks K(x, y) = K(-x, -y) only
        a, b, n = 1.0, 0.2, 640
        def kernel(x, y):
            return np.exp(-((x + y - 0.7) ** 2) / (2 * a * a) - ((x - y) ** 2) / (2 * b * b))

        def refuse(mat):
            raise AssertionError("parity split used on a non-centrosymmetric matrix")

        monkeypatch.setattr(analysis, "_parity_eigvalsh", refuse)
        sp = schmidt_numeric(kernel, -4.0, 4.0, n, feature_width=b)
        h = 8.0 / n
        x = -4.0 + (np.arange(n) + 0.5) * h
        w = np.sort(np.linalg.eigvalsh(kernel(x[:, None], x[None, :]) * h) ** 2)[::-1]
        w /= w.sum()
        assert np.max(np.abs(sp.weights - w)) < 1e-13
        assert sp.schmidt_number == pytest.approx(1.0 / np.sum(w**2), rel=1e-12)

    def test_grid_over_the_memory_cap_is_refused_before_allocation(self):
        n = math.isqrt(analysis.NUMERIC_MEMORY_CAP // (8 * analysis.NUMERIC_MATRICES)) + 1
        needed = analysis.NUMERIC_MATRICES * 8 * n * n
        assert needed > analysis.NUMERIC_MEMORY_CAP

        def kernel(x, y):
            raise AssertionError("kernel evaluated")

        with pytest.raises(ConfigError) as exc:
            schmidt_numeric(kernel, -4.0, 4.0, n)
        assert f"{needed} bytes" in str(exc.value)

    def test_grid_at_the_memory_cap_passes_the_guard(self):
        n = math.isqrt(analysis.NUMERIC_MEMORY_CAP // (8 * analysis.NUMERIC_MATRICES))

        class Reached(Exception):
            pass

        def kernel(x, y):  # called before any n x n array exists
            raise Reached

        with pytest.raises(Reached):
            schmidt_numeric(kernel, -4.0, 4.0, n)


class TestOamSpectrum:
    def test_reference_schmidt_number(self, ref_dist):
        sp = oam_spectrum(ref_dist)
        # discrete normalized sum: K = sqrt(2 pi) / dalpha_c
        assert sp.schmidt_number == pytest.approx(7978.9733724984735, rel=1e-9)
        assert sp.schmidt_number == pytest.approx(
            math.sqrt(2.0 * math.pi) / ref_dist.coincidence_width, rel=1e-9
        )

    def test_closed_form_value(self, ref_dist, ref_scales, ref_config):
        sp = oam_spectrum(ref_dist)
        expected = (
            2.0
            * math.sqrt(2.0 * math.pi)
            * ref_scales.theta0
            * ref_config.w
            / ref_config.lambda_p
        )
        assert sp.closed_form_k == pytest.approx(expected, rel=1e-9)

    def test_closed_form_to_analytic_ratio(self, ref_dist, ref_scales):
        sp = oam_spectrum(ref_dist)
        k_analytic = schmidt_analytic(ref_scales.a, ref_scales.b).schmidt_number
        assert sp.closed_form_k / k_analytic == pytest.approx(
            2.0 * math.sqrt(2.0 * math.pi) / math.pi**2, rel=0.01
        )

    def test_degenerate_pairs_equal_weight(self):
        sp = oam_spectrum(AzimuthalDistribution(coincidence_width=0.02), l_max=40)
        assert sp.oam_l[0] == 0 and sp.oam_parity[0] == "cos"
        for l in (1, 5, 17):
            idx = np.nonzero(sp.oam_l == l)[0]
            assert len(idx) == 2
            assert sp.weights[idx[0]] == sp.weights[idx[1]]
            assert set(sp.oam_parity[idx]) == {"cos", "sin"}

    def test_weights_follow_gaussian_law(self):
        dac = 0.03
        sp = oam_spectrum(AzimuthalDistribution(coincidence_width=dac), l_max=60)
        lam = sp.weights
        ls = sp.oam_l.astype(float)
        ratio = lam / lam[0]
        assert np.max(np.abs(ratio - np.exp(-(ls**2) * dac * dac))) < 1e-12

    def test_normalized_and_k_consistent(self, ref_dist):
        sp = oam_spectrum(ref_dist)
        assert float(sp.weights.sum()) == pytest.approx(1.0, abs=1e-12)
        assert sp.recompute_k() == pytest.approx(sp.schmidt_number, rel=1e-12)
        assert sp.residual < 1e-9

    def test_regime_precondition(self):
        with pytest.raises(RegimeError):
            oam_spectrum(AzimuthalDistribution(coincidence_width=0.2))


class TestOamModes:
    def test_l0_cos_constant(self):
        alpha = np.linspace(-math.pi / 2, math.pi / 2, 7)
        got = oam_mode(0, "cos", alpha)
        assert np.max(np.abs(got - math.sqrt(2.0 / math.pi))) < 1e-15

    def test_l0_sin_identically_zero(self):
        alpha = np.linspace(-math.pi / 2, math.pi / 2, 7)
        assert np.max(np.abs(oam_mode(0, "sin", alpha))) == 0.0

    def test_l0_sin_excluded_from_spectrum(self):
        sp = oam_spectrum(AzimuthalDistribution(coincidence_width=0.05), l_max=10)
        zero_modes = [(l, p) for l, p in zip(sp.oam_l, sp.oam_parity) if l == 0]
        assert zero_modes == [(0, "cos")]

    def test_alpha_range_enforced(self):
        with pytest.raises(ConfigError):
            oam_mode(1, "cos", 2.0)

    def test_unit_norm_per_integer_l(self):
        # (2/pi) integral of cos^2(l alpha) over [-pi/2, pi/2] is exactly 1
        # for every integer l >= 1 (and for sin), but 2 for the constant
        # l = 0 mode: the shared sqrt(2/pi) prefactor overnormalizes it.
        # The Gram matrix reports this rather than hiding it.
        diag = np.diag(oam_mode_gram(6))
        assert diag[0] == pytest.approx(2.0, abs=1e-6)
        assert np.max(np.abs(diag[1:] - 1.0)) < 1e-6

    def test_gram_reports_parity_structure(self):
        gram = oam_mode_gram(6)
        sp = oam_spectrum(AzimuthalDistribution(coincidence_width=0.05), l_max=6)
        ls, ps = sp.oam_l, sp.oam_parity
        for i in range(len(ls)):
            for j in range(i):
                same_parity = ps[i] == ps[j]
                same_l_parity = (ls[i] - ls[j]) % 2 == 0
                if same_parity and same_l_parity:
                    assert abs(gram[i, j]) < 1e-6
                if not same_parity:
                    # cos x sin integrands are odd: always orthogonal
                    assert abs(gram[i, j]) < 1e-6


class TestCoefficientCheck:
    def test_fourier_coefficients_match_closed_form(self):
        dist = AzimuthalDistribution(coincidence_width=1e-3)
        dev = coefficient_check(dist, l_max=3000)
        assert dev < 1e-3

    def test_reference_config(self, ref_dist):
        assert coefficient_check(ref_dist, l_max=512) < 1e-6

    def test_reference_config_at_l_max_900(self, ref_dist):
        assert coefficient_check(ref_dist, l_max=900) < 1e-14

    @pytest.mark.parametrize("l_max", [0, 1, 3, 4, 24, 25, 37])
    def test_blocked_exponentials_match_per_l_trapezoid(self, l_max):
        # per-l np.trapezoid reference, on the check's uniform grid and on
        # a non-uniform one; l_max straddles the block boundaries B^2
        dac = 0.02
        uniform = np.linspace(-10.0 * dac, 10.0 * dac, 2001)
        rng = np.random.default_rng(7)
        ragged = np.sort(rng.uniform(-10.0 * dac, 10.0 * dac, 1500))
        for delta in (uniform, ragged):
            f = np.exp(-(delta**2) / (2.0 * dac * dac))
            ref = np.array([np.trapezoid(f * np.cos(l * delta), delta)
                            for l in range(l_max + 1)])
            got = analysis._trapezoid_cosines(f, delta, l_max)
            assert got.shape == (l_max + 1,)
            assert np.max(np.abs(got - ref)) < 1e-14 * ref[0]

    def test_matches_per_l_trapezoid_deviation(self):
        # coarse quadrature: l near 2 pi / h aliases onto l = 0, so the
        # deviation is of order 1, and it must equal the per-l trapezoid's
        dac, l_max, n_quad = 0.05, 800, 121
        dist = AzimuthalDistribution(coincidence_width=dac)
        delta = np.linspace(-10.0 * dac, 10.0 * dac, n_quad)
        f = np.exp(-(delta**2) / (2.0 * dac * dac))
        ls = np.arange(l_max + 1)
        ref = np.array([np.trapezoid(f * np.cos(l * delta), delta) for l in ls])
        closed = math.sqrt(2.0 * math.pi) * dac * np.exp(-(ls**2) * dac * dac / 2.0)
        want = np.max(np.abs(ref - closed) / closed[0])
        assert want > 1e-3
        assert coefficient_check(dist, l_max, n_quad=n_quad) == pytest.approx(want, abs=1e-14)


class TestAzimuthalDensity:
    def test_ridge_peak_and_width(self, ref_dist):
        assert azimuthal_density(ref_dist, 0.3, 0.3) == 1.0
        got = azimuthal_density(ref_dist, 0.5 * DALPHA_C, -0.5 * DALPHA_C)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_conditional_and_unconditional_widths(self, ref_dist):
        # conditional slice: 1/e half-width dalpha_c; unconditional scan:
        # flat at the quadrature level, width set by the full pi window
        alpha = np.linspace(-math.pi / 2, math.pi / 2, 20001)
        slice_at = azimuthal_density(ref_dist, alpha, 0.0)
        half = ref_dist.coincidence_width
        inside = np.abs(alpha) < half
        assert slice_at[inside].min() > math.exp(-1.0) - 1e-6
        # unconditional: integral over alpha2 is independent of alpha1 away
        # from the window edges
        mass_center = np.trapezoid(azimuthal_density(ref_dist, 0.0, alpha), alpha)
        mass_off = np.trapezoid(azimuthal_density(ref_dist, 0.5, alpha), alpha)
        assert mass_off == pytest.approx(mass_center, rel=1e-6)


class TestSpectrumInvariants:
    def test_all_methods(self, ref_dist, ref_scales):
        spectra = [
            schmidt_analytic(2.0 * math.pi, 0.9),
            schmidt_numeric(_dg_kernel(1.0, 0.2), -4.0, 4.0, 640, feature_width=0.2),
            oam_spectrum(AzimuthalDistribution(coincidence_width=0.02)),
        ]
        for sp in spectra:
            assert np.all(sp.weights >= 0.0)
            assert float(sp.weights.sum()) == pytest.approx(
                1.0, abs=max(sp.residual, 1e-12) * 2.0 + 1e-12
            )
            assert sp.recompute_k() * float(np.sum(sp.weights**2)) == pytest.approx(
                1.0, abs=1e-12
            )
            if sp.method is not SchmidtMethod.OAM:
                assert np.all(np.diff(sp.weights) <= 1e-15)
            else:
                # descending within degeneracy classes: weight is a
                # nonincreasing function of |l|
                order = np.argsort(sp.oam_l, kind="stable")
                assert np.all(np.diff(sp.weights[order]) <= 1e-15)
