"""Acceptance gate: one test per published anchor, at its stated tolerance.

Each test prints one pass/fail line under `pytest -v`. Criteria 05 and
09 check their published constants against oracles computed inside the
test, not against values the library returns: 05 against a root-find on
sinc^2 (the published 0.359 is its half-maximum match, not a least-squares
fit), 09 against the DFT of the circulant ring kernel (the discrete OAM
Schmidt number is pi/2 times the printed closed form). The test docstrings
give the details.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from biphoton import (
    AmplitudeKind,
    AmplitudeModel,
    AngularPair,
    AzimuthMode,
    GeometryMode,
    amplitude,
    azimuthal_widths,
    cone_angle,
    collinear_threshold,
    oam_spectrum,
    probability_density,
    pump_index,
    r_parameter,
    schmidt_analytic,
    schmidt_modes,
    schmidt_numeric,
    transverse_sum_diff,
    validity_report,
    walkoff_slope,
)
from biphoton.amplitude import SINC_GAUSS_HALF_MAX

LAMBDA_P = 0.4047


def test_criterion_01_cone_angle(bbo):
    """theta0 = 0.28 +- 0.01 rad at phi0 = 0.7."""
    assert cone_angle(bbo, LAMBDA_P, 0.7) == pytest.approx(0.28, abs=0.01)


def test_criterion_02_walkoff_slope(bbo):
    """zeta = 0.12 +- 0.01, matching the finite difference to < 1e-4."""
    zeta = walkoff_slope(bbo, LAMBDA_P, 0.7)
    assert zeta == pytest.approx(0.12, abs=0.01)
    h = 1e-6
    fd = (
        pump_index(bbo, LAMBDA_P, h, 0.0, 0.7) - pump_index(bbo, LAMBDA_P, -h, 0.0, 0.7)
    ) / (2.0 * h)
    assert abs(-zeta - fd) / abs(fd) < 1e-4


def test_criterion_03_constant_phase(ref_scales):
    """phi = -900 +- 10% at L = 0.5 cm."""
    assert ref_scales.phi_const == pytest.approx(-900.0, rel=0.10)


def test_criterion_04_noncollinear_window(bbo):
    """Window endpoints 0.50 +- 0.01 and 2.64 +- 0.02 rad."""
    lo, hi = collinear_threshold(bbo, LAMBDA_P)
    assert lo == pytest.approx(0.50, abs=0.01)
    assert hi == pytest.approx(2.64, abs=0.02)


def test_criterion_05_sinc_gaussian_fit(ref_scales):
    """The double-Gaussian constant is 0.359 +- 0.02, the half-maximum
    match of sinc^2.

    0.359 is not a least-squares constant: the unweighted least-squares fit
    of exp(-c x^2) to sinc^2(x) on |x| <= pi gives 0.3814 (computed in
    test_amplitude.py), and a dense fit on |x| <= 60 gives 0.3812. It is the
    constant at which exp(-c x^2) and sinc^2(x) fall to 1/2 at the same x:
    sinc^2(x_h) = 1/2 at x_h = 1.3916, so c = ln 2 / x_h^2 = 0.3580. The
    check recovers the constant the DOUBLE_GAUSSIAN model uses from its
    density at theta1 = theta2 = theta0 + delta, alpha1 = alpha2, where the
    pump and walk-off terms vanish and the density is exp(-c x^2) with
    x = theta0 delta / dtheta_L, and compares it with that half-maximum
    constant, root-found here.
    """
    x_half = brentq(lambda x: np.sinc(x / math.pi) ** 2 - 0.5, 0.1, 3.0)
    c_half = math.log(2.0) / x_half**2
    model = AmplitudeModel(AmplitudeKind.DOUBLE_GAUSSIAN, ref_scales)
    t0, dtheta_L = ref_scales.theta0, ref_scales.dtheta_L
    for x in (0.5, 1.0, 2.0):
        theta = t0 + x * dtheta_L / t0
        density = probability_density(model, AngularPair(theta, theta, 0.3, 0.3))
        c_model = -math.log(density) / x**2
        assert abs(c_model - SINC_GAUSS_HALF_MAX) < 1e-9 * SINC_GAUSS_HALF_MAX
    assert SINC_GAUSS_HALF_MAX == pytest.approx(0.359, abs=0.02)
    assert abs(SINC_GAUSS_HALF_MAX - c_half) < 2e-3


def test_criterion_06_length_threshold(ref_config, ref_scales):
    """L-threshold n_o lambda_p / (pi theta0^2) = 2.78 um +- 2%."""
    report = validity_report(ref_config, ref_scales)
    assert report.length_threshold_um == pytest.approx(2.78, rel=0.02)


def test_criterion_07_entanglement_magnitude(ref_dist, ref_scales, ref_config):
    """R ~ 1e4 and R equals the a/2b Schmidt form as an algebraic identity."""
    r = r_parameter(ref_dist)
    assert r == pytest.approx(1e4, rel=0.10)
    assert r == pytest.approx(
        math.pi**2 * ref_scales.theta0 * ref_config.w / ref_config.lambda_p,
        rel=1e-12,
    )
    assert abs(r - ref_scales.a / (2.0 * ref_scales.b)) / r < 1e-12


@pytest.mark.parametrize("ratio", [5.0, 20.0, 50.0])
def test_criterion_08_svd_oracle_equivalence(ratio):
    """Numeric SVD reproduces the closed-form weights to < 1e-3 absolute
    and K to < 1% for a/b in {5, 20, 50}."""
    a, b = 1.0, 1.0 / ratio

    def kernel(x, y):
        return np.exp(-((x + y) ** 2) / (2 * a * a) - ((x - y) ** 2) / (2 * b * b))

    n = max(800, int(math.ceil(64.0 / b)))
    numeric = schmidt_numeric(kernel, -4.0, 4.0, n, feature_width=b)
    analytic = schmidt_analytic(a, b)
    m = min(len(numeric.weights), len(analytic.weights), 60)
    assert np.max(np.abs(numeric.weights[:m] - analytic.weights[:m])) < 1e-3
    assert (
        abs(numeric.schmidt_number - analytic.schmidt_number)
        / analytic.schmidt_number
        < 0.01
    )


def test_criterion_09_oam_consistency(ref_config, ref_dist, ref_scales):
    """K_OAM/K = 2 sqrt(2 pi)/pi^2 +- 1% between the published closed forms;
    the discrete OAM Schmidt number within 2% of the ring-kernel oracle and
    pi/2 +- 2% times the printed closed form 2 sqrt(2 pi) theta0 w / lambda_p.

    Oracle: the azimuthal amplitude exp(-(a1-a2)^2 / (2 dac^2)), with
    dac = lambda_p / (pi theta0 w) as fixed by criterion 07, depends on
    a1 - a2 only. Periodised on the 2 pi ring, where each of the two
    identical photons may lie, it is a circulant kernel, so the DFT of one
    sampled row gives its eigenvalues (Gray, Toeplitz and Circulant
    Matrices: A Review, 2006); the Schmidt weights are their normalised
    squares. That gives K = sqrt(2 pi)/dac = 7979 at the reference
    configuration, while the printed closed form is 5080, a factor pi/2
    lower. A pi ring gives half of 7979, so no choice of period reproduces
    the printed value; the factor is checked here as a recorded fact.
    """
    spectrum = oam_spectrum(ref_dist)
    k_analytic = schmidt_analytic(ref_scales.a, ref_scales.b).schmidt_number
    assert spectrum.closed_form_k / k_analytic == pytest.approx(
        2.0 * math.sqrt(2.0 * math.pi) / math.pi**2, rel=0.01
    )

    dac = ref_config.lambda_p / (math.pi * ref_scales.theta0 * ref_config.w)
    n = 2**18
    alpha = np.arange(n) * (2.0 * math.pi / n)
    gap = np.minimum(alpha, 2.0 * math.pi - alpha)  # nearest image on the ring
    eig = np.fft.fft(np.exp(-(gap**2) / (2.0 * dac * dac))).real
    w = eig**2 / np.sum(eig**2)
    k_ring = 1.0 / float(np.sum(w**2))
    assert spectrum.schmidt_number == pytest.approx(k_ring, rel=0.02)
    assert spectrum.schmidt_number / spectrum.closed_form_k == pytest.approx(
        math.pi / 2.0, rel=0.02
    )


def test_criterion_10_marginalization(ref_scales):
    """Integrating the walk-off-inclusive double-Gaussian density over the
    polar angles leaves the azimuthal Gaussian to < 1e-3 relative."""
    s = ref_scales
    model = AmplitudeModel(AmplitudeKind.DOUBLE_GAUSSIAN, s)
    t0 = s.theta0
    sig_tau = 2.0 * s.dtheta_L / (math.sqrt(0.359) * t0)
    shift = (s.n_o / s.n_p0) * s.zeta * (0.01 * 2.0 + t0 * 8.0 * s.b) / t0
    n = 401
    tau = np.linspace(-12 * sig_tau - 2 * shift, 12 * sig_tau + 2 * shift, n)
    d = np.linspace(-10 * s.dtheta_p, 10 * s.dtheta_p, n)
    TT, DD = np.meshgrid(tau, d, indexing="ij")

    def marginal(dal, al0):
        pair = AngularPair(
            t0 + 0.5 * (TT + DD), t0 + 0.5 * (TT - DD),
            al0 + 0.5 * dal, al0 - 0.5 * dal,
        )
        return probability_density(model, pair).sum()

    base = marginal(0.0, 0.3)
    for dal in np.linspace(-3.0 * s.b, 3.0 * s.b, 7):
        for al0 in (-1.0, 0.3, 1.2):
            got = marginal(dal, al0) / base
            expected = math.exp(-(t0 * dal) ** 2 / s.dtheta_p**2)
            assert abs(got - expected) / expected < 1e-3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 100])
def test_criterion_11_multichannel_closed_forms(n):
    """K = 2N and S_r = 1 + log2(N), exact to 1e-12."""
    from biphoton import MultichannelState, multichannel_entanglement

    mag = 1.0 / math.sqrt(2 * n)
    amps = np.empty(2 * n)
    amps[0::2] = mag
    amps[1::2] = -mag
    k, s = multichannel_entanglement(MultichannelState(n_planes=n, amplitudes=amps))
    assert abs(k - 2.0 * n) < 1e-12 * 2.0 * n
    assert abs(s - (1.0 + math.log2(n))) < 1e-12


def test_criterion_12_property_suites(ref_scales):
    """Transposition symmetry, NWO factorization, mode orthonormality,
    spectrum normalization, second-order geometry convergence."""
    t0 = ref_scales.theta0
    rng = np.random.default_rng(101)
    n = 1000
    a0 = rng.uniform(-1.4, 1.4, n)
    da = rng.uniform(-2e-3, 2e-3, n)
    pair = AngularPair(
        t0 + rng.uniform(-2e-3, 2e-3, n), t0 + rng.uniform(-2e-3, 2e-3, n),
        a0 + 0.5 * da, a0 - 0.5 * da,
    )

    # transposition symmetry of the FULL amplitude
    full = AmplitudeModel(AmplitudeKind.FULL, ref_scales)
    assert np.max(np.abs(amplitude(full, pair) - amplitude(full, pair.transposed()))) < 1e-12

    # NWO factorization identity on independent polar/azimuthal draws
    nwo = AmplitudeModel(AmplitudeKind.NWO, ref_scales)

    def psi(t1, t2, d):
        return amplitude(nwo, AngularPair(t1, t2, 0.5 * d, -0.5 * d))

    th = [t0 + rng.uniform(-2e-3, 2e-3, n) for _ in range(4)]
    d1, d2 = (rng.uniform(-2e-3, 2e-3, n) for _ in range(2))
    lhs = psi(th[0], th[1], d1) * psi(th[2], th[3], d2)
    rhs = psi(th[0], th[1], d2) * psi(th[2], th[3], d1)
    assert np.max(np.abs(lhs - rhs)) < 1e-14

    # Schmidt-mode orthonormality to n = 50
    a, b = 2.0 * math.pi, 2.0 * math.pi / 50.0
    x = np.linspace(-40.0, 40.0, 20001)
    modes = schmidt_modes(50, a, b, x)
    gram = modes @ modes.T * (x[1] - x[0])
    assert np.max(np.abs(gram - np.eye(51))) < 1e-8

    # spectrum normalization
    sp = schmidt_analytic(a, b)
    assert float(sp.weights.sum()) + sp.residual == pytest.approx(1.0, abs=1e-12)
    dist = azimuthal_widths(ref_scales)
    assert float(oam_spectrum(dist).weights.sum()) == pytest.approx(1.0, abs=1e-12)

    # exact vs small-angle geometry: second-order convergence
    u1, u2, v = (rng.uniform(-1, 1, 2000) for _ in range(3))
    eps_list = [0.02, 0.01, 0.005, 0.0025]
    errs = []
    for eps in eps_list:
        p = AngularPair(t0 + eps * u1, t0 + eps * u2, 0.5 * eps * v, -0.5 * eps * v)
        se, _ = transverse_sum_diff(p, LAMBDA_P, GeometryMode.EXACT)
        ss, _ = transverse_sum_diff(p, LAMBDA_P, GeometryMode.SMALL_ANGLE)
        errs.append(np.max(np.abs(ss - se)))
    slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)

    # exact azimuth solution consistency with the linearized one
    ce = pump_azimuth_cos(pair, AzimuthMode.EXACT)
    cl = pump_azimuth_cos(pair, AzimuthMode.LINEARIZED, theta0=t0)
    assert np.max(np.abs(ce - cl)) < 0.05


from biphoton import pump_azimuth_cos  # noqa: E402  (used in criterion 12)
