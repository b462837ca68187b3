"""Tests for the excitation/decay model: closed forms vs the k-grid oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from collapse_lab import kgrid
from collapse_lab.decay import (
    DecayModelParams,
    alpha_decay_closed,
    beta_decay_closed,
    beta_excitation,
    occupation,
    occupation_collapsed,
    occupation_gaussian_asymptotic,
    packet_width,
    photon_number_density,
    photon_position_density,
    position_asymptotic,
    position_collapsed,
)
from collapse_lab.hilbert import DomainError
from collapse_lab.kgrid import KGrid, integrate_kgrid


def make_params(eps=1.0, gamma=1.0, sigma=1e-4, x0=0.0, tcal=0.0):
    return DecayModelParams(eps, gamma, sigma, x0, tcal)


class TestParams:
    def test_coupling_constant(self):
        p = make_params(gamma=2.0)
        assert abs(p.g - math.sqrt(2.0 / (2 * math.pi))) < 1e-15

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(DomainError):
            make_params(gamma=0.0)

    @pytest.mark.parametrize("refused, message", [
        (lambda: make_params(tcal=-0.5), "T_cal must be >= 0"),
        (lambda: alpha_decay_closed([0.5, 1.0], -0.1, make_params()),
         "pure-decay form defined for s >= 0"),
        (lambda: photon_position_density([0.5], 1.0, make_params(), "smeared"),
         "unknown variant 'smeared'"),
        (lambda: position_collapsed([0.5], 1.0, make_params()),
         "smeared form needs T_cal > 0"),
        (lambda: position_asymptotic([0.5], 1.0, make_params()),
         "asymptotic form needs T_cal > 0"),
        (lambda: KGrid(-1.0, 1.0, 64, dt=0.0), "dt must be positive"),
        (lambda: KGrid(-1.0, 1.0, 64, dt=-1e-3), "dt must be positive"),
        (lambda: kgrid.chebyshev_size(-1.0, 1.0, 0.1, 0.0, math.inf),
         "Chebyshev argument half*span = inf is not finite"),
    ], ids=["negative_t_cal", "alpha_negative_s", "unknown_variant",
            "collapsed_zero_t_cal", "asymptotic_zero_t_cal", "kgrid_zero_dt",
            "kgrid_negative_dt", "chebyshev_infinite_span"])
    def test_refusals(self, refused, message):
        # the decay and k-grid refusals, each with its message
        with pytest.raises(DomainError) as info:
            refused()
        assert str(info.value) == message

    def test_packet_regularization_normalization(self):
        # f = sqrt of a Gaussian pdf of sd w: int f^2 = 1 and (int f)^2 = sigma
        p = make_params(sigma=0.3)
        w = packet_width(p)
        amp = (2 * math.pi * w * w) ** -0.25
        f = lambda u: amp * math.exp(-u * u / (4 * w * w))
        int_f2, _ = quad(lambda u: f(u) ** 2, -10 * w, 10 * w)
        int_f, _ = quad(f, -10 * w, 10 * w)
        assert abs(int_f2 - 1.0) < 1e-10
        assert abs(int_f**2 - p.sigma) < 1e-10


class TestKGrid:
    def test_minimum_mode_count(self):
        with pytest.raises(DomainError):
            KGrid(-1.0, 1.0, 32, dt=1e-3)

    def test_recurrence_time(self):
        g = KGrid(-40.0, 40.0, 4096, dt=5e-4)
        assert abs(g.recurrence_time - 2 * math.pi * 4096 / 80.0) < 1e-9

    def test_trapezoid_weights_sum_to_span(self):
        g = KGrid(-2.0, 2.0, 101, dt=1e-3)
        k, w = g.points_and_weights()
        assert abs(w.sum() - 4.0) < 1e-12

    def test_insufficient_coverage_rejected(self):
        p = make_params(eps=5.0, gamma=1.0)
        grid = KGrid(-10.0, 20.0, 1024, dt=1e-3)  # only 15 rates above eps
        with pytest.raises(DomainError):
            integrate_kgrid(p, grid, "decay", 1.0)

    def test_recurrence_limit_enforced(self):
        p = make_params()
        grid = KGrid(-20.0, 22.0, 64, dt=1e-3)
        with pytest.raises(DomainError):
            integrate_kgrid(p, grid, "decay", t_final=100.0)


class TestDecayClosedForms:
    def test_beta_is_damped_phase(self):
        p = make_params(eps=2.0, gamma=0.8)
        b = beta_decay_closed(1.5, p)
        assert abs(abs(b) ** 2 - math.exp(-0.8 * 1.5)) < 1e-14
        assert abs(cmath_phase_diff(b, -2.0 * 1.5)) < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            beta_decay_closed(-0.1, make_params())

    def test_probability_conserved_with_photon_modes(self):
        # |beta|^2 + integral |alpha_k|^2 dk = 1 at any s; dense trapezoid
        # over +-5000 rates plus the analytic Lorentzian tail correction
        p = make_params(eps=1.0, gamma=1.0)
        cutoff = 5000.0
        k = np.linspace(-cutoff, cutoff, 2_000_001)
        for s in [0.5, 2.0]:
            dens = np.abs(alpha_decay_closed(k, s, p)) ** 2
            # the uniform-grid trapezoid rule, written out: np.trapezoid
            # needs numpy >= 2.0 and np.trapz is gone from numpy 2.4
            val = float((dens.sum() - 0.5 * (dens[0] + dens[-1])) * (k[1] - k[0]))
            tail = (1.0 + math.exp(-p.Gamma * s)) * p.Gamma / (math.pi * cutoff)
            assert abs(val + tail + math.exp(-p.Gamma * s) - 1.0) < 1e-4

    def test_number_density_is_lorentzian_at_late_times(self):
        p = make_params(eps=1.0, gamma=1.0)
        k = np.array([1.0])
        # on resonance the cosine term dies with exp(-Gamma*s/2)
        late = photon_number_density(k, 50.0, p)[0]
        lorentz = 2 * math.pi * p.Gamma / (0.5 * p.Gamma) ** 2
        assert abs(late - lorentz) / lorentz < 1e-6

    def test_number_density_shape_matches_amplitude_form(self):
        # the printed prefactor is (2*pi)^2 times |alpha_k|^2; the k-shape
        # is identical, which is what the Lorentzian-core oracle checks
        p = make_params(eps=1.0, gamma=1.0)
        k = np.linspace(-2.0, 4.0, 101)
        printed = photon_number_density(k, 3.0, p)
        derived = np.abs(alpha_decay_closed(k, 3.0, p)) ** 2
        ratio = printed / derived
        np.testing.assert_allclose(ratio, (2 * math.pi) ** 2, rtol=1e-10)


def cmath_phase_diff(z, expected_phase):
    import cmath

    return (cmath.phase(z) - expected_phase + math.pi) % (2 * math.pi) - math.pi


class TestExcitation:
    def test_delta_packet_occupation(self):
        p = make_params(gamma=2.0, sigma=1e-3)
        assert occupation(-0.5, p) == 0.0
        assert abs(occupation(0.0, p) - p.Gamma * p.sigma) < 1e-15
        assert abs(occupation(1.0, p) - p.Gamma * p.sigma * math.exp(-2.0)) < 1e-15

    def test_gaussian_packet_converges_to_delta(self):
        p = make_params(gamma=1.0, sigma=1e-3)
        for s in [0.3, 1.0, 3.0]:
            d = occupation(s, p, "delta")
            g = occupation(s, p, "gaussian")
            assert abs(d - g) / d < 1e-6

    def test_gaussian_packet_matches_direct_convolution(self):
        # beta(s) = -i*sqrt(Gamma)*e^{-z s} * int_{-inf}^s f(u) e^{z u} du
        p = make_params(eps=1.3, gamma=0.9, sigma=0.4)
        w = packet_width(p)
        amp = (2 * math.pi * w * w) ** -0.25
        z = 0.5 * p.Gamma + 1j * p.epsilon
        for s in [-0.2, 0.1, 0.8]:
            re, _ = quad(
                lambda u: (amp * math.exp(-u * u / (4 * w * w))
                           * np.exp(z * u).real),
                -12 * w, s, limit=300,
            )
            im, _ = quad(
                lambda u: (amp * math.exp(-u * u / (4 * w * w))
                           * np.exp(z * u).imag),
                -12 * w, s, limit=300,
            )
            want = -1j * math.sqrt(p.Gamma) * np.exp(-z * s) * (re + 1j * im)
            assert abs(beta_excitation(s, p, "gaussian") - want) < 1e-10

    def test_unknown_packet_rejected(self):
        with pytest.raises(DomainError):
            beta_excitation(0.0, make_params(), "boxcar")


class TestArrays:
    # the closed forms take one number: mapped over a numpy array, each
    # element gives its Python number's value, as a Python scalar
    @pytest.mark.parametrize("f", [
        lambda s, p: beta_excitation(s, p, "delta"),
        lambda s, p: beta_excitation(s, p, "gaussian"),
        lambda s, p: occupation(s, p, "delta"),
        lambda s, p: occupation(s, p, "gaussian"),
        occupation_collapsed,
    ], ids=["beta_delta", "beta_gaussian", "occ_delta", "occ_gaussian",
            "occ_collapsed"])
    @pytest.mark.parametrize("tcal", [0.0, 0.5])
    def test_array_equals_pointwise(self, f, tcal):
        p = make_params(eps=1.3, gamma=0.9, sigma=0.4, tcal=tcal)
        ss = np.linspace(-2.0, 4.0, 49)
        got = [f(s, p) for s in ss]
        assert type(f(0.5, p)) in (float, complex)
        np.testing.assert_allclose(got, [f(s, p) for s in ss.tolist()],
                                   rtol=1e-15, atol=0)

    def test_delta_packet_never_evaluates_the_rising_exponential(self):
        # exp(-z*s) at s = -2000 would raise OverflowError; the closed form
        # is 0 there
        p = make_params(gamma=5.0)
        occ = [occupation(s, p) for s in (-2000.0, 0.0, 2000.0)]
        assert occ == [0.0, p.Gamma * p.sigma, 0.0]


class TestPositionDensity:
    def test_decay_only_support_and_edge_value(self):
        p = make_params(gamma=1.5, x0=2.0)
        s = 3.0
        assert photon_position_density(1.9, s, p) == 0.0
        assert photon_position_density(5.1, s, p) == 0.0
        # leading edge x -> x0 + s carries the most recent emission: Gamma
        near_edge = photon_position_density(2.0 + s - 1e-9, s, p)
        assert abs(near_edge - p.Gamma) < 1e-6

    def test_decay_only_integrates_to_decayed_fraction(self):
        p = make_params(gamma=1.0)
        s = 2.0
        val, _ = quad(lambda x: float(photon_position_density(x, s, p)), 0.0, s)
        assert abs(val - (1.0 - math.exp(-s))) < 1e-10

    def test_excitation_terms_before_the_scatterer(self):
        p = make_params(gamma=1.0, sigma=0.3, x0=0.0)
        terms = photon_position_density(-1.0, 0.5, p, "excitation")
        assert terms["interference"] == 0.0
        assert terms["decay_tail"] == 0.0
        assert terms["total"] == terms["incident"]

    def test_excitation_total_integrates_to_survival(self):
        # total photon probability = 1 - |beta|^2 at each s
        p = make_params(gamma=1.0, sigma=0.3)
        s = 1.0
        val, _ = quad(
            lambda x: float(photon_position_density(x, s, p, "excitation")["total"]),
            -8.0, 8.0, limit=400,
        )
        # delta-packet algebra is accurate to O(sigma*Gamma)
        assert abs(val - (1.0 - p.Gamma * p.sigma * math.exp(-s))) < 0.1 * p.sigma


class TestCollapsedObservables:
    def test_tcal_zero_falls_back_to_unsmeared(self):
        p = make_params(tcal=0.0)
        assert occupation_collapsed(1.0, p) == occupation(1.0, p)

    def test_matches_quadrature_smear(self, quad_smear):
        p = make_params(gamma=2.0, sigma=1e-4, tcal=0.5)
        for s in [-0.5, 0.0, 0.8, 2.0]:
            sm = quad_smear(lambda u: occupation(u, p), s, p.T_cal)
            assert abs(sm - occupation_collapsed(s, p)) < 1e-6 * max(
                1.0, occupation_collapsed(s, p)
            )

    def test_no_overflow_at_large_gamma_tcal(self):
        # e^{(Gamma*T)^2/2} alone overflows; the log-domain product must not
        p = make_params(gamma=60.0, sigma=1e-4, tcal=1.0)
        v = occupation_collapsed(0.0, p)
        assert math.isfinite(v) and v > 0.0

    def test_position_packet_term_is_broadened_incident_packet(self):
        # smearing the width-w incident packet in time gives a Gaussian of
        # width sqrt(w^2 + T_cal^2) ~ T_cal; same for the interference delta
        p = make_params(gamma=2.0, sigma=1e-4, tcal=0.5)
        w = packet_width(p)
        s = 1.0
        for x in [-0.5, 0.3, 0.9]:
            u = s - x
            width = math.hypot(w, p.T_cal)
            want = (
                math.exp(-0.5 * (u / width) ** 2)
                / (width * math.sqrt(2 * math.pi))
                * (1.0 - p.Gamma * p.sigma * (x > 0))
            )
            got = float(position_collapsed(x, s, p)["packet"])
            assert abs(got - want) < 1e-6 * want

    def test_position_tail_term_matches_quadrature_smear(self, quad_smear):
        p = make_params(gamma=2.0, sigma=1e-4, tcal=0.5)
        s = 1.0
        tail_sharp = lambda tau, x: (
            p.Gamma**2 * p.sigma * math.exp(-p.Gamma * (tau - x))
            if (x > 0 and tau > x) else 0.0
        )
        for x in [0.3, 0.9, 1.4]:
            sm = quad_smear(lambda tau: tail_sharp(tau, x), s, p.T_cal)
            got = float(position_collapsed(x, s, p)["decay_tail"])
            assert abs(sm - got) < 1e-8

    def test_gaussian_asymptotic_requires_tcal(self):
        with pytest.raises(DomainError):
            occupation_gaussian_asymptotic(0.0, make_params(tcal=0.0))

    def test_gaussian_asymptotic_value(self):
        p = make_params(gamma=5.0, sigma=1e-4, tcal=1.0)
        got = occupation_gaussian_asymptotic(0.7, p)
        want = 1e-4 / math.sqrt(2 * math.pi) * math.exp(-0.245)
        assert abs(got - want) < 1e-18

    def test_full_curve_approaches_gaussian_only_at_huge_gamma_tcal(self):
        # documents the asymptotic quality: at Gamma*T_cal = 5 the smeared
        # occupation still deviates from the Gaussian by a Mills-ratio
        # factor Gamma*T_cal*M(Gamma*T_cal - s/T_cal) ~ 2.1 at s = 3*T_cal;
        # pointwise 2% agreement needs Gamma*T_cal of a few hundred
        p5 = make_params(gamma=5.0, sigma=1e-4, tcal=1.0)
        r5 = occupation_collapsed(3.0, p5) / occupation_gaussian_asymptotic(3.0, p5)
        assert 2.0 < r5 < 2.2
        p300 = make_params(gamma=300.0, sigma=1e-4, tcal=1.0)
        ratios = [
            occupation_collapsed(float(s), p300)
            / occupation_gaussian_asymptotic(float(s), p300)
            for s in np.linspace(-3.0, 3.0, 25)
        ]
        assert max(abs(r - 1.0) for r in ratios) < 0.02

    def test_position_asymptotic_matches_smeared_at_large_gamma_tcal(self):
        p = make_params(gamma=300.0, sigma=1e-4, tcal=1.0)
        s = 1.0
        for x in [-1.0, 0.4, 1.5]:
            full = float(position_collapsed(x, s, p)["total"])
            asym = float(position_asymptotic(x, s, p))
            assert abs(full - asym) < 0.02 * max(full, 1e-12)


class TestKGridOracle:
    # small grid for speed; the acceptance suite runs the full-size oracle
    def small_grid(self, p, dt=2e-3):
        return KGrid.for_params(p, half_width_rates=20.0, n_modes=1024, dt=dt)

    def test_decay_tracks_exponential(self):
        p = make_params(eps=1.0, gamma=1.0)
        res = integrate_kgrid(p, self.small_grid(p), "decay", 2.0, record_every=50)
        exact = np.exp(-res.times)
        rel = np.abs(res.occupation - exact) / exact
        # truncation at +-20 rates contributes an O(Gamma/width) offset
        assert rel.max() < 0.06

    def test_probability_conserved(self):
        p = make_params(eps=1.0, gamma=1.0)
        res = integrate_kgrid(p, self.small_grid(p, dt=5e-4), "decay", 2.0,
                              record_every=100)
        drift = np.abs(res.total_probability - res.total_probability[0]).max()
        assert drift / res.times[-1] < 1e-8
        # the propagated norm at every segment end
        assert res.norm_drift / (res.times[-1] - res.times[0]) < 1e-8

    def test_excitation_matches_closed_form(self):
        # sigma large enough that the packet's k-support fits the grid
        p = make_params(eps=1.0, gamma=1.0, sigma=1.5)
        res = integrate_kgrid(p, self.small_grid(p), "excitation", 1.5,
                              record_every=50)
        closed = np.array(
            [abs(beta_excitation(float(s), p, "gaussian")) ** 2 for s in res.times]
        )
        assert np.abs(res.occupation - closed).max() < 0.05 * closed.max()

    def test_excitation_needs_wide_enough_packet(self):
        p = make_params(eps=1.0, gamma=1.0, sigma=1e-3)
        with pytest.raises(DomainError):
            integrate_kgrid(p, self.small_grid(p), "excitation", 1.0)

    def test_unknown_packet_rejected(self):
        p = make_params()
        with pytest.raises(DomainError):
            integrate_kgrid(p, self.small_grid(p), "plane", 1.0)

    def test_record_spacing_beyond_the_span_rejected(self):
        # a span of 0.01 is 20 steps of 5e-4: recording every 100 would give
        # only the record at t = 0 after propagating the whole span
        p = DecayModelParams(1.0, 1.0, 1e-4)
        grid = KGrid.for_params(p, 20.0, 256, 5e-4)
        with pytest.raises(DomainError, match="record_every"):
            integrate_kgrid(p, grid, "decay", 0.01, record_every=100)
        res = integrate_kgrid(p, grid, "decay", 0.01, record_every=20)
        np.testing.assert_allclose(res.times, [0.0, 0.01], rtol=0, atol=1e-15)
