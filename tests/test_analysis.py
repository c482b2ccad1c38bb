"""Width ratio, Schmidt spectra (analytic, numeric SVD, OAM), Fourier checks."""

import dataclasses
import math
import tracemalloc
import warnings

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
    derive_scales,
    oam_spectrum,
    r_parameter,
    schmidt_analytic,
    schmidt_modes,
    schmidt_numeric,
)
from biphoton import analysis, cli

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
        # the single-particle width is the alpha0 window pi
        assert r_parameter(ref_dist) == math.pi / ref_dist.coincidence_width

    def test_doubling_waist_halves_width(self, ref_config, bbo):
        wide = dataclasses.replace(ref_config, w=2.0 * ref_config.w)
        d2 = azimuthal_widths(derive_scales(wide))
        assert d2.coincidence_width == pytest.approx(0.5 * DALPHA_C, rel=1e-12)

    def test_widths_well_separated(self, ref_dist):
        assert math.pi / ref_dist.coincidence_width > 10.0

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ConfigError):
            AzimuthalDistribution(coincidence_width=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["coincidence_width"])
    def test_non_finite_width_rejected(self, name, bad):
        widths = {"coincidence_width": 1e-3, name: bad}
        with pytest.raises(ConfigError, match=name):
            AzimuthalDistribution(**widths)


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
        assert 1.0 / np.sum(sp.weights**2) == pytest.approx(sp.schmidt_number, rel=1e-8)

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

    @pytest.mark.parametrize("a,b", [(1e200, 1.0), (1e300, 1e-300), (1.0, 1e-17),
                                     (1e308, 1e308), (1e-200, 1e-200)])
    def test_widths_outside_float_range_refused(self, a, b):
        # (a + b)**2 overflows or underflows, a + b overflows, or q rounds to 1
        with pytest.raises(ConfigError):
            schmidt_analytic(a, b)

    @pytest.mark.parametrize("a,b", [(math.nan, 0.5), (math.inf, 0.5),
                                     (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_widths_refused(self, a, b):
        with pytest.raises(ConfigError, match="finite"):
            schmidt_analytic(a, b)

    def test_mode_cap_sets_truncated(self, ref_scales):
        # the cap is reported only through SchmidtSpectrum.truncated
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sp = schmidt_analytic(ref_scales.a, ref_scales.b * 1e-3)
        assert sp.truncated and len(sp.weights) == analysis.MODE_CAP


class TestSchmidtModes:
    def test_orthonormality_up_to_50(self):
        a, b = 2.0 * math.pi, 2.0 * math.pi / 50.0
        x = np.linspace(-40.0, 40.0, 20001)
        modes = schmidt_modes(50, a, b, x)
        gram = modes @ modes.T * (x[1] - x[0])
        assert np.max(np.abs(gram - np.eye(51))) < 1e-8

    def test_series_reconstructs_kernel(self):
        # sum_n sqrt(lambda_n) psi_n(x) psi_n(y) is proportional to the
        # double-Gaussian kernel; compare where the kernel is not tiny
        a, b = 2.0 * math.pi, 2.0 * math.pi / 50.0
        # amplitudes scale as sqrt(weight), so the default 1e-9 weight tail
        # is only ~3e-5 in amplitude; extend the series to 1,501 geometric
        # weights for a 1e-6 check
        q = ((a - b) / (a + b)) ** 2
        weights = (1.0 - q) * q ** np.arange(1501)
        default = schmidt_analytic(a, b).weights
        assert len(default) < len(weights)
        np.testing.assert_allclose(default, weights[: len(default)], rtol=1e-12, atol=0)
        xs = np.linspace(-1.5, 1.5, 31)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        kern = np.exp(-((X + Y) ** 2) / (2 * a * a) - ((X - Y) ** 2) / (2 * b * b))
        rec = np.zeros_like(kern)
        modes = schmidt_modes(len(weights) - 1, a, b, xs)
        for n, w in enumerate(weights):
            m = modes[n]
            rec += math.sqrt(w) * np.outer(m, m)
        mask = kern > 1e-3
        scale = rec[mask][0] / kern[mask][0]
        assert np.max(np.abs(rec[mask] / kern[mask] - scale)) < 1e-6

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigError):
            schmidt_modes(-1, 1.0, 1.0, 0.0)


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
        split = np.sort(np.concatenate([np.linalg.eigvalsh(block)
                                        for block in analysis._parity_blocks(mat)]))
        assert len(split) == n
        assert np.max(np.abs(split - dense)) < 1e-13 * np.max(np.abs(dense))
        w = np.sort(dense**2)[::-1]
        w /= w.sum()
        k_dense = 1.0 / np.sum(w**2)
        sp = schmidt_numeric(_dg_kernel(a, b), -4.0 * a, 4.0 * a, n, feature_width=b)
        assert abs(sp.schmidt_number - k_dense) < 1e-12 * k_dense

    @pytest.mark.parametrize("n", [883, 884])
    def test_cli_kernel_from_one_dimensional_factors(self, monkeypatch, n):
        # the CLI's Hankel x Toeplitz double Gaussian on schmidt_numeric's
        # grid: the pointwise matrix to roundoff, exactly symmetric, parity
        # split taken, and the same K as the pointwise kernel
        a, b = 1.0, 1.0 / 13.0
        h = 8.0 * a / n
        x = -4.0 * a + (np.arange(n) + 0.5) * h
        mat = cli._double_gaussian(a, b)(x[:, None], x[None, :])
        pointwise = _dg_kernel(a, b)(x[:, None], x[None, :])
        assert np.max(np.abs(mat - pointwise)) <= 1e-14 * np.max(pointwise)
        assert np.array_equal(mat, mat.T)
        calls = []
        split = analysis._parity_blocks
        monkeypatch.setattr(analysis, "_parity_blocks",
                            lambda m: calls.append(len(m)) or split(m))
        sp = schmidt_numeric(cli._double_gaussian(a, b), -4.0 * a, 4.0 * a, n,
                             feature_width=b)
        assert calls == [n]
        ref = schmidt_numeric(_dg_kernel(a, b), -4.0 * a, 4.0 * a, n, feature_width=b)
        assert abs(sp.schmidt_number - ref.schmidt_number) < 1e-12 * ref.schmidt_number

    @pytest.mark.parametrize("n", [883, 884])
    def test_parity_route_peak_memory(self, n):
        # the CLI's kernel is one n x n array; the structure tests use a
        # small buffer, and the matrix is dropped once its two half-size
        # blocks exist, so about 1.5 matrices are held at once
        a, b = 1.0, 1.0 / 13.0
        kernel = cli._double_gaussian(a, b)
        tracemalloc.start()
        try:
            schmidt_numeric(kernel, -4.0 * a, 4.0 * a, n, feature_width=b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 8 * n * n

    def test_kernel_array_is_left_as_returned(self):
        # a kernel that hands back a matrix it keeps, writable or read-only,
        # finds it unchanged and gets the same spectrum on every call
        a, b, n = 1.0, 0.2, 64
        x = -4.0 + (np.arange(n) + 0.5) * (8.0 / n)
        kept = _dg_kernel(a, b)(x[:, None], x[None, :])
        before = kept.copy()
        view = kept[:]
        view.flags.writeable = False
        spectra = [schmidt_numeric(lambda x, y, m=m: m, -4.0, 4.0, n).weights
                   for m in (kept, kept, view)]
        np.testing.assert_array_equal(kept, before)
        for w in spectra[1:]:
            np.testing.assert_array_equal(w, spectra[0])

    def test_centrosymmetric_kernel_takes_the_parity_split(self, monkeypatch):
        calls = []
        split = analysis._parity_blocks
        monkeypatch.setattr(analysis, "_parity_blocks",
                            lambda mat: calls.append(len(mat)) or split(mat))
        schmidt_numeric(_dg_kernel(1.0, 0.2), -4.0, 4.0, 321, feature_width=0.2)
        assert calls == [321]

    def test_kernel_without_both_symmetries_takes_the_svd(self, monkeypatch):
        a, b, n = 1.0, 0.2, 640

        def off_centre(x, y):
            # shifting the wide Gaussian breaks K(x, y) = K(-x, -y) only
            return np.exp(-((x + y - 0.7) ** 2) / (2 * a * a) - ((x - y) ** 2) / (2 * b * b))

        def nearly_symmetric(x, y):
            # breaks K(x, y) = K(y, x) by about 1e-6 relative on the ridge:
            # inside np.allclose's default rtol, far outside the documented atol
            return np.exp(-((x + y) ** 2) / 2 - ((x - y) ** 2) / 0.08) * (1 + 3e-6 * x)

        def refuse(mat):
            raise AssertionError("parity split used on a matrix without both symmetries")

        monkeypatch.setattr(analysis, "_parity_blocks", refuse)
        h = 8.0 / n
        x = -4.0 + (np.arange(n) + 0.5) * h
        for kernel in (off_centre, nearly_symmetric):
            sp = schmidt_numeric(kernel, -4.0, 4.0, n, feature_width=b)
            s = np.linalg.svd(kernel(x[:, None], x[None, :]) * h, compute_uv=False)
            w = np.sort(s**2)[::-1]
            w /= w.sum()
            assert np.max(np.abs(sp.weights - w)) < 1e-13
            assert sp.schmidt_number == pytest.approx(1.0 / np.sum(w**2), rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_kernel_refused(self, bad):
        # one bad point is enough; no numpy warning on the way
        def kernel(x, y):
            k = _dg_kernel(1.0, 0.2)(x, y)
            k[5, 7] = bad
            return k

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="not finite"):
                schmidt_numeric(kernel, -4.0, 4.0, 64)

    @pytest.mark.parametrize("shift", [0.9, 1.1])
    @pytest.mark.parametrize("moved", [[(3, 20)], [(3, 20), (20, 3)], [(0, 0)],
                                       [(3, 20), (60, 43)]])
    def test_structure_route_is_allclose_route(self, monkeypatch, shift, moved):
        # a 64 x 64 double-Gaussian matrix with entries moved by shift * atol:
        # one off-diagonal entry (breaks both symmetries), a transposed pair
        # or a corner (only the centrosymmetry), a pair mirrored through the
        # centre (only the symmetry); the parity split is taken exactly when
        # np.allclose(rtol=0) allows it
        n, h = 64, 8.0 / 64
        seen = {}

        def kernel(x, y):
            k = _dg_kernel(1.0, 0.2)(x, y)
            atol = 1e-13 * max(1.0, np.abs(k * h).max())
            for i, j in moved:
                k[i, j] += shift * atol / h
            seen["mat"] = k * h
            return k

        split = []
        real_split = analysis._parity_blocks
        monkeypatch.setattr(analysis, "_parity_blocks",
                            lambda mat: split.append(1) or real_split(mat))
        schmidt_numeric(kernel, -4.0, 4.0, n)
        mat = seen["mat"]
        atol = 1e-13 * max(1.0, np.abs(mat).max())
        expected = np.allclose(mat, mat.T, rtol=0.0, atol=atol) and np.allclose(
            mat, mat[::-1, ::-1], rtol=0.0, atol=atol
        )
        assert bool(split) == expected == (shift < 1.0)

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
        sp = oam_spectrum(AzimuthalDistribution(coincidence_width=0.02))
        assert sp.oam_l[0] == 0 and sp.oam_parity[0] == "cos"
        for l in (1, 5, 17):
            idx = np.nonzero(sp.oam_l == l)[0]
            assert len(idx) == 2
            assert sp.weights[idx[0]] == sp.weights[idx[1]]
            assert set(sp.oam_parity[idx]) == {"cos", "sin"}

    def test_weights_follow_gaussian_law(self):
        dac = 0.03
        sp = oam_spectrum(AzimuthalDistribution(coincidence_width=dac))
        lam = sp.weights
        ls = sp.oam_l.astype(float)
        ratio = lam / lam[0]
        assert np.max(np.abs(ratio - np.exp(-(ls**2) * dac * dac))) < 1e-12

    def test_normalized_and_k_consistent(self, ref_dist):
        sp = oam_spectrum(ref_dist)
        assert float(sp.weights.sum()) == pytest.approx(1.0, abs=1e-12)
        assert 1.0 / np.sum(sp.weights**2) == pytest.approx(sp.schmidt_number, rel=1e-12)
        assert sp.residual < 1e-9

    def test_regime_precondition(self):
        with pytest.raises(RegimeError):
            oam_spectrum(AzimuthalDistribution(coincidence_width=0.2))

    def test_l0_sin_excluded_from_spectrum(self):
        sp = oam_spectrum(AzimuthalDistribution(coincidence_width=0.05))
        zero_modes = [(l, p) for l, p in zip(sp.oam_l, sp.oam_parity) if l == 0]
        assert zero_modes == [(0, "cos")]

    def test_mode_cap_sets_truncated(self):
        # below dac = 1.05e-5 the automatic l_max passes the cap; reported
        # only through SchmidtSpectrum.truncated
        l_max = (analysis.MODE_CAP - 1) // 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sp = oam_spectrum(AzimuthalDistribution(coincidence_width=1e-5))
        assert sp.truncated and sp.oam_l[-1] == l_max
        assert len(sp.weights) == 2 * l_max + 1 <= analysis.MODE_CAP


class TestCoefficientCheck:
    def test_fourier_coefficients_match_closed_form(self):
        dist = AzimuthalDistribution(coincidence_width=1e-3)
        dev = coefficient_check(dist, l_max=3000)
        assert dev < 1e-3

    def test_reference_config(self, ref_dist):
        assert coefficient_check(ref_dist, l_max=512) < 1e-6

    def test_reference_config_at_l_max_900(self, ref_dist):
        assert coefficient_check(ref_dist, l_max=900) < 1e-14

    def test_peak_memory_at_l_max_900(self, ref_dist):
        # a few arrays of l_max + 1 doubles, 7 KiB each
        tracemalloc.start()
        try:
            coefficient_check(ref_dist, l_max=900)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_plane_wave_end(self, ref_config):
        # dac 4.6e-14: the ring has about 2e14 points, of which only the
        # few dozen inside |delta| <= 10 dac are summed
        dist = azimuthal_widths(derive_scales(dataclasses.replace(ref_config, w=1e13)))
        tracemalloc.start()
        try:
            dev = coefficient_check(dist, l_max=900)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dev < 1e-14
        assert peak < 2**20

    @pytest.mark.parametrize("dac", [0.1, 0.5])
    def test_broad_ridge_refused(self, dac):
        with pytest.raises(RegimeError, match="narrow-ridge"):
            coefficient_check(AzimuthalDistribution(coincidence_width=dac), l_max=10)

    @pytest.mark.parametrize("l_max", [-1, -5])
    def test_negative_l_max_refused(self, ref_dist, l_max):
        with pytest.raises(ConfigError, match="l_max"):
            coefficient_check(ref_dist, l_max)


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
            # the reported K against 1/sum(w^2) of the stored weights
            assert sp.schmidt_number * float(np.sum(sp.weights**2)) == pytest.approx(
                1.0, abs=1e-12
            )
            if sp.method is not SchmidtMethod.OAM:
                assert np.all(np.diff(sp.weights) <= 1e-15)
            else:
                # descending within degeneracy classes: weight is a
                # nonincreasing function of |l|
                order = np.argsort(sp.oam_l, kind="stable")
                assert np.all(np.diff(sp.weights[order]) <= 1e-15)
