"""Tests for the switched spin-precession closed forms."""

import cmath
import math

import numpy as np
import pytest
from scipy.special import ndtr

from collapse_lab import _kernels, spin
from collapse_lab.hilbert import DomainError
from collapse_lab.spin import (
    SpinModelParams,
    normal_cdf,
    sigma1_collapsed,
    sigma1_standard,
    spin_density_matrix,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def params(eps=3.0, sigma=1e-4, tcal=0.0, a=INV_SQRT2, b=INV_SQRT2):
    return SpinModelParams(a, b, eps, sigma, tcal)


class TestParams:
    def test_amplitudes_must_be_normalized(self):
        with pytest.raises(DomainError):
            SpinModelParams(1.0, 1.0, 1.0, 1.0)

    def test_envelope_value(self):
        assert abs(params(3.0, 1e-4, 1.0).envelope - math.exp(-4.5)) < 1e-16


class TestNormalCdf:
    def test_real_arguments_match_ndtr(self):
        for x in [-3.0, -0.5, 0.0, 1.2, 4.0]:
            assert abs(normal_cdf(x).real - ndtr(x)) < 1e-15
            assert normal_cdf(x).imag == 0.0

    def test_reflection_identity_holds_for_complex(self):
        # tolerance is relative to |Phi(z)|, which grows like exp(Im(z)^2/2)
        for z in [0.3 + 1.0j, -2.0 + 5.0j, 1.5 - 8.0j]:
            scale = max(1.0, abs(normal_cdf(z)))
            assert abs(normal_cdf(z) + normal_cdf(-z) - 1.0) < 1e-12 * scale

    def test_derivative_is_normal_density(self):
        z, h = 0.7 + 0.4j, 1e-5
        num = (normal_cdf(z + h) - normal_cdf(z - h)) / (2 * h)
        want = cmath.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        assert abs(num - want) < 1e-9

    def test_large_imaginary_part_rejected(self):
        with pytest.raises(DomainError):
            normal_cdf(0.0 + 31.0j)

    def test_is_the_kernel_function(self):
        # one Phi, with one domain check, for spin and decay alike
        assert spin.normal_cdf is _kernels.normal_cdf


class TestSigma1Standard:
    def test_long_before_switch_no_precession(self):
        p = params()
        # s << -sigma: the splitting is off, <sigma_1> = 2ab
        assert abs(sigma1_standard(-0.05, p) - 1.0) < 1e-9

    def test_long_after_switch_pure_precession(self):
        p = params(eps=3.0, sigma=1e-4)
        for s in [0.5, 1.0, 2.7]:
            want = math.cos(3.0 * s)  # sigma*eps corrections are ~1e-8 here
            assert abs(sigma1_standard(s, p) - want) < 1e-6

    def test_switchover_midpoint(self):
        p = params()
        # at s = 0 both Phi factors are 1/2: average of the two regimes
        want = 0.5 * (1.0 + 1.0)  # cos(0) = 1
        assert abs(sigma1_standard(0.0, p) - want + 0.0) < 1e-3

    def test_complex_amplitudes_supported(self):
        p = SpinModelParams(INV_SQRT2, INV_SQRT2 * 1j, 2.0, 1e-3)
        # a*b is imaginary: precession becomes a sine
        assert abs(sigma1_standard(1.0, p) - (-math.sin(2.0))) < 1e-5


def sigma1_oracle(s, p):
    """<sigma_1>(s) = 2 Re[conj(a)*b*(P(X > s) + E[exp(i*eps*(s - X)); X < s])]
    for the packet position X ~ N(0, sigma^2): the tail by math.erfc, the
    expectation by 64-node Gauss-Legendre on 40 panels of width sigma over
    [s - 40*sigma, s]; for s <= 5*sigma the packet's mass left of that
    window is below 1e-260."""
    sig, eps = p.sigma, p.epsilon
    tail = 0.5 * math.erfc(s / (sig * math.sqrt(2.0)))
    x, w = np.polynomial.legendre.leggauss(64)
    left = s - sig * np.arange(40, 0, -1)
    pts = (left[:, None] + 0.5 * sig * (x + 1.0)).ravel()
    wts = np.tile(0.5 * sig * w, 40)
    dens = np.exp(-0.5 * (pts / sig) ** 2) / (sig * math.sqrt(2.0 * math.pi))
    inside = np.sum(wts * dens * np.exp(1j * eps * (s - pts)))
    return 2.0 * (complex(p.a).conjugate() * complex(p.b) * (tail + inside)).real


class TestSigma1ExactForm:
    # sigma*eps ~ 1, where the shortcut forms fail and only the exact form holds
    @pytest.mark.parametrize("b", [0.8j, 0.8])
    @pytest.mark.parametrize("eps, sigma", [(3.0, 0.3), (2.0, 0.5), (1.0, 1.0)])
    def test_matches_quadrature_oracle(self, b, eps, sigma):
        p = SpinModelParams(0.6, b, eps, sigma)
        for s in np.linspace(-3.0 * sigma, 5.0 * sigma, 17):
            assert abs(sigma1_standard(float(s), p) - sigma1_oracle(float(s), p)) < 1e-13


class TestSigma1Collapsed:
    def test_tcal_zero_recovers_standard(self):
        p = params(tcal=0.0)
        for s in np.linspace(-1.0, 3.0, 41):
            assert sigma1_collapsed(float(s), p) == sigma1_standard(float(s), p)

    def test_precession_amplitude_suppressed(self):
        p = params(eps=3.0, sigma=1e-4, tcal=1.0)
        s = 10 * math.pi / 3.0  # cos(eps*s) = 1, well past the switchover
        got = sigma1_collapsed(s, p)
        assert abs(got - math.exp(-4.5)) < 1e-6

    def test_switch_onset_widened_to_tcal(self):
        p = params(eps=3.0, sigma=1e-4, tcal=1.0)
        # the constant (non-precessing) part follows Phi(-s/T_cal)
        got = sigma1_collapsed(-1.3, p)
        want = ndtr(1.3) + math.exp(-4.5) * math.cos(3.0 * -1.3) * ndtr(-1.3)
        assert abs(got - want) < 1e-6

    def test_matches_smeared_standard_form(self, quad_smear):
        # regime where the closed form is exact: eps*T_cal small
        p = params(eps=0.03, sigma=1e-4, tcal=0.01)
        for s in np.linspace(-0.04, 0.04, 9):
            sm = quad_smear(lambda u: sigma1_standard(u, p), float(s), p.T_cal)
            assert abs(sm - sigma1_collapsed(float(s), p)) < 1e-6


class TestArrays:
    # the closed forms take one number: mapped over a numpy array, each
    # element gives its Python number's value, as a Python scalar
    @pytest.mark.parametrize("f", [sigma1_standard, sigma1_collapsed])
    @pytest.mark.parametrize("tcal", [0.0, 1.0])
    def test_sigma1_array_equals_pointwise(self, f, tcal):
        p = params(eps=3.0, sigma=1e-4, tcal=tcal)
        ss = np.linspace(-4.0, 8.0, 61)
        got = [f(s, p) for s in ss]
        assert isinstance(f(0.5, p), float)
        want = [f(s, p) for s in ss.tolist()]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    def test_normal_cdf_array_equals_pointwise(self):
        z = np.array([[-3.0, 0.0, 1.2], [0.3 + 1.0j, -2.0 + 5.0j, 1.5 - 8.0j]])
        got = [[normal_cdf(x) for x in row] for row in z]
        assert isinstance(normal_cdf(0.5), complex)
        assert isinstance(normal_cdf(np.complex128(0.5)), complex)
        want = [[normal_cdf(x) for x in row] for row in z.tolist()]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    def test_normal_cdf_rejects_any_large_imaginary_part(self):
        with pytest.raises(DomainError):
            [normal_cdf(z) for z in np.array([0.0, 31.0j])]


class TestSpinDensityMatrix:
    def test_inside_switchover_window_rejected(self):
        p = params(tcal=1.0)
        with pytest.raises(DomainError):
            spin_density_matrix(1.0, p)

    def test_trace_one_and_positive(self):
        p = params(eps=3.0, sigma=1e-4, tcal=1.0)
        rho = spin_density_matrix(5.0, p)
        assert abs(np.trace(rho) - 1.0) < 1e-14
        assert np.linalg.eigvalsh(rho).min() > -1e-14

    def test_sigma1_expectation_matches_closed_form(self):
        p = params(eps=3.0, sigma=1e-4, tcal=1.0)
        sig1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        for s in [7.0, 9.5, 12.0]:
            got = np.trace(spin_density_matrix(s, p) @ sig1).real
            assert abs(got - sigma1_collapsed(s, p)) < 1e-8

    def test_large_envelope_limit_is_pure(self):
        p = params(eps=1.0, sigma=1e-4, tcal=1e-4)
        rho = spin_density_matrix(1.0, p)
        # envelope ~ 1: rho ~ pure projector, purity ~ 1
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-6

    def test_full_suppression_limit_is_diagonal(self):
        p = params(eps=30.0, sigma=1e-4, tcal=1.0, a=0.6, b=0.8)
        rho = spin_density_matrix(5.0, p)
        assert abs(rho[0, 1]) < 1e-12
        assert abs(rho[0, 0] - 0.36) < 1e-12
