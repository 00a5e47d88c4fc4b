import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, pdtrc
from scipy.stats import poisson

import helpers
from kennedyrx import montecarlo, photonstats
from kennedyrx.estimation import crlb_variance, fisher_onoff, fisher_pnr
from kennedyrx.photonstats import (
    MAX_MEAN_PHOTONS,
    DetectorPlaneAmplitudes,
    PhotonPmf,
    default_cutoff,
    fano_factor,
    nu_plus_minus,
    photon_pmf,
    photon_pmf_dphi,
    pmf_columns,
    pmf_fidelity,
    pmf_table,
)

SQRT2 = math.sqrt(2.0)


def amps(a, b):
    return DetectorPlaneAmplitudes(a=a, b=b)


class TestNuPlusMinus:
    def test_full_interference(self):
        assert nu_plus_minus(amps(1, 1), 0.0) == (4.0, 0.0)

    def test_quadrature_point(self):
        nu_p, nu_m = nu_plus_minus(amps(1, 1), math.pi / 2)
        assert nu_p == pytest.approx(2.0, abs=1e-15)
        assert nu_m == pytest.approx(2.0, abs=1e-15)

    def test_experimental_amplitudes(self):
        # a=1.12, b=0.79: s = 1.8785, 2ab = 1.7696
        nu_p, nu_m = nu_plus_minus(amps(1.12, 0.79), 0.25)
        s, x = 1.8785, 1.7696 * math.cos(0.25)
        assert nu_p == pytest.approx(s + x, rel=1e-12)
        assert nu_m == pytest.approx(s - x, rel=1e-12)

    def test_nonnegative(self):
        for phi in np.linspace(-7, 7, 101):
            nu_p, nu_m = nu_plus_minus(amps(1.3, 1.3), phi)
            assert nu_p >= 0.0 and nu_m >= 0.0


class TestPhotonPmf:
    def test_vacuum(self):
        p = photon_pmf(amps(0, 0), 0.7)
        assert p.probs[0] == 1.0
        assert np.all(p.probs[1:] == 0.0)

    def test_single_poisson_at_half_pi(self):
        p = photon_pmf(amps(1, 1), math.pi / 2)
        n = np.arange(p.n_max + 1)
        expected = helpers.poisson_pmf_direct(2.0, n)
        np.testing.assert_allclose(p.probs, expected, atol=1e-15)

    def test_p0_at_zero_phase(self):
        p = photon_pmf(amps(1, 1), 0.0)
        assert p.probs[0] == pytest.approx(0.5 * (math.exp(-4.0) + 1.0), abs=1e-15)

    def test_matches_direct_mixture(self):
        p = photon_pmf(amps(1.12, 0.79), 0.25)
        n = np.arange(p.n_max + 1)
        np.testing.assert_allclose(
            p.probs, helpers.mixture_pmf_direct(1.12, 0.79, 0.25, n), atol=1e-15
        )

    def test_cutoff_policy_tail(self):
        for a, b in [(0.5, 0.5), (1, 1), (1.12, 0.79), (SQRT2, SQRT2), (3, 3)]:
            nm = default_cutoff(amps(a, b))
            assert poisson.sf(nm, (a + b) ** 2) <= 1e-12

    def test_cutoff_accepts_the_brightest_tested_regime(self):
        assert (20.0 + 20.0) ** 2 <= MAX_MEAN_PHOTONS
        assert default_cutoff(amps(20.0, 20.0)) > MAX_MEAN_PHOTONS

    @pytest.mark.parametrize("a, b", [(20.0, 20.001), (1e10, 1.0), (1e200, 1.0), (1e308, 1e308)])
    def test_cutoff_rejects_means_above_the_bound(self, a, b):
        with pytest.raises(ValueError, match="mean photon number"):
            default_cutoff(amps(a, b))

    def test_mean_is_total_energy(self):
        for a, b, phi in [(1, 1, 0.3), (SQRT2, SQRT2, 1.1), (1.12, 0.79, 0.0)]:
            p = photon_pmf(amps(a, b), phi)
            assert p.mean() == pytest.approx(a * a + b * b, abs=1e-10)

    @given(
        a=st.floats(0.0, 3.0),
        b=st.floats(0.0, 3.0),
        phi=st.floats(-4.0, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_normalization_invariant(self, a, b, phi):
        p = photon_pmf(amps(a, b), phi)
        total = p.probs.sum()
        assert total <= 1.0 + 1e-12
        assert total + p.tail_bound >= 1.0 - 1e-12
        assert p.tail_bound <= 1e-12

    @given(
        a=st.floats(0.0, 3.0),
        b=st.floats(0.0, 3.0),
        phi=st.floats(0.0, math.pi / 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_defines_identifiable_domain(self, a, b, phi):
        base = photon_pmf(amps(a, b), phi).probs
        np.testing.assert_allclose(photon_pmf(amps(a, b), -phi).probs, base, atol=1e-13)
        np.testing.assert_allclose(
            photon_pmf(amps(a, b), math.pi - phi).probs, base, atol=1e-13
        )


class TestPmfColumns:
    def test_columns_beyond_cutoff_match_direct_mixture(self):
        phis = np.linspace(0.0, math.pi / 2, 7)
        ns = np.array([150, 0, 5])
        cols = pmf_columns(amps(SQRT2, SQRT2), phis, ns)
        assert cols.shape == (phis.size, ns.size)
        for i, phi in enumerate(phis):
            np.testing.assert_allclose(
                cols[i], helpers.mixture_pmf_direct(SQRT2, SQRT2, phi, ns), rtol=1e-13, atol=0
            )

    def test_noisy_columns_match_table(self):
        phis = np.linspace(0.0, math.pi / 2, 5)
        table = pmf_table(amps(1.12, 0.79), phis, 0.5)
        cols = pmf_columns(amps(1.12, 0.79), phis, [7, 0], 0.5)
        np.testing.assert_allclose(cols, table[:, [7, 0]], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("ns", [[2, -1], [1.5]])
    def test_rejects_photon_numbers_that_are_not_counts(self, ns):
        with pytest.raises(ValueError, match="nonnegative integers"):
            pmf_columns(amps(1, 1), [0.3], ns)


class TestLnFactorialTable:
    """The committed ln n! table is scipy's gammaln(n + 1), bit for bit.

    To regenerate it, write ``ln_factorial_table()`` with
    ``.tofile("src/kennedyrx/ln_factorial.f64")``.
    """

    # the brightest accepted regime, (a + b)^2 = MAX_MEAN_PHOTONS
    BRIGHTEST = amps(math.sqrt(MAX_MEAN_PHOTONS) / 2, math.sqrt(MAX_MEAN_PHOTONS) / 2)

    @classmethod
    def ln_factorial_table(cls) -> np.ndarray:
        cap = montecarlo._count_cap(cls.BRIGHTEST)
        return gammaln(np.arange(cap + 1) + 1.0).astype("<f8")

    def test_is_scipy_gammaln_bit_for_bit(self):
        table = photonstats._ln_factorial()
        assert table.dtype == np.float64
        assert table.tobytes() == self.ln_factorial_table().tobytes()

    def test_covers_every_count_a_draw_returns(self):
        assert (self.BRIGHTEST.a + self.BRIGHTEST.b) ** 2 == MAX_MEAN_PHOTONS
        assert photonstats._ln_factorial().size == montecarlo._count_cap(self.BRIGHTEST) + 1

    def test_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            photonstats._ln_factorial()[0] = 1.0

    @pytest.mark.parametrize("n", [2170, 2171, 10**6])
    def test_log_poisson_rows_use_the_gammaln_formula(self, n):
        # 2170 is the table's last entry, 2171 and 10**6 take the fallback
        nu = np.array([0.5, 2.0, 700.5, 1600.0])
        ns = np.array([0, 1, 17, n])
        expected = ns * np.log(nu[:, None]) - nu[:, None] - gammaln(ns + 1.0)
        assert np.array_equal(photonstats._log_poisson_rows(nu, ns), expected)
        assert np.array_equal(
            photonstats._log_poisson_rows(nu, np.array([n])), expected[:, -1:]
        )


class TestTailBoundsMatchScipyStats:
    """Tail bounds use scipy.special.pdtrc, which is what poisson.sf evaluates."""

    def test_pdtrc_is_poisson_sf(self):
        rng = np.random.default_rng(11)
        k = rng.integers(0, 3000, size=20_000)
        mu = rng.uniform(0.0, 3000.0, size=20_000)
        mu[::50] = 0.0
        assert np.array_equal(pdtrc(k, mu), poisson.sf(k, mu))

    @pytest.mark.parametrize(
        "a, b, phi, n_max",
        [(SQRT2, SQRT2, 0.3, None), (1, 1, 0.0, None), (1.12, 0.79, 0.25, 5), (20, 20, 1.0, None)],
    )
    def test_noiseless_tail_bound(self, a, b, phi, n_max):
        p = photon_pmf(amps(a, b), phi, n_max=n_max)
        nu_p, nu_m = nu_plus_minus(amps(a, b), phi)
        assert p.tail_bound == float(0.5 * (poisson.sf(p.n_max, nu_p) + poisson.sf(p.n_max, nu_m)))

    @pytest.mark.parametrize("a, b, n_max", [(SQRT2, SQRT2, None), (1.3, 0.8, 6)])
    def test_noisy_tail_bound(self, a, b, n_max):
        p = photon_pmf(amps(a, b), 0.4, 0.5, n_max=n_max)
        assert p.tail_bound == float(poisson.sf(p.n_max, (a + b) ** 2))


class TestPhotonPmfNoisy:
    def test_zero_noise_is_bitwise_noiseless(self):
        clean = photon_pmf(amps(1.3, 0.8), 0.4)
        noisy = photon_pmf(amps(1.3, 0.8), 0.4, 0.0)
        assert np.array_equal(clean.probs, noisy.probs)
        assert clean.tail_bound == noisy.tail_bound

    def test_full_circle_noise_is_phase_invariant(self):
        ref = photon_pmf(amps(1, 1), 0.0, 2 * math.pi)
        for phi in (0.3, 1.0, math.pi / 2, 2.5):
            other = photon_pmf(amps(1, 1), phi, 2 * math.pi)
            np.testing.assert_allclose(other.probs, ref.probs, atol=1e-12)
        # bright means: the integrand narrows like 1/sqrt(ab), and a fixed 64
        # nodes left rows 0.058 (a = b = 14) and 0.133 (a = b = 20) apart in
        # total variation, with PNR Fisher informations up to 108; rounding
        # alone then left up to 1.5e-21, a Cramer-Rao bound of 7.6e17 at M = 1000
        phis = np.linspace(0.0, 2.5, 12)
        for a in (5.0, 14.0, 20.0):
            rows = pmf_table(amps(a, a), phis, 2 * math.pi)
            assert 0.5 * np.abs(rows - rows[0]).sum(axis=1).max() < 1e-12
            for fisher in (fisher_pnr, fisher_onoff):
                assert np.all(fisher(amps(a, a), phis, 2 * math.pi) == 0.0)
                assert crlb_variance(fisher(amps(a, a), 0.3, 2 * math.pi), 1000) is None

    def test_against_midpoint_oracle(self):
        p = photon_pmf(amps(SQRT2, SQRT2), 0.3, math.pi / 4)
        n = np.arange(p.n_max + 1)
        oracle = helpers.midpoint_noisy_pmf(SQRT2, SQRT2, 0.3, math.pi / 4, n)
        np.testing.assert_allclose(p.probs, oracle, atol=1e-8)

    def test_continuity_to_noiseless(self):
        clean = photon_pmf(amps(1.2, 0.9), 0.5)
        tiny = photon_pmf(amps(1.2, 0.9), 0.5, 1e-8)
        np.testing.assert_allclose(tiny.probs, clean.probs, atol=1e-8)

    def test_normalization(self):
        p = photon_pmf(amps(1.12, 0.79), 0.25, math.pi / 2)
        assert p.probs.sum() <= 1.0 + 1e-12
        assert p.probs.sum() + p.tail_bound >= 1.0 - 1e-12

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError, match="gamma"):
            photon_pmf(amps(1, 1), 0.0, -0.1)
        with pytest.raises(ValueError, match="gamma"):
            photon_pmf(amps(1, 1), 0.0, 7.0)


class TestPhotonPmfDphi:
    def test_zero_at_phi_zero(self):
        d = photon_pmf_dphi(amps(1.7, 0.6), 0.0)
        assert np.all(d == 0.0)

    def test_zero_at_half_pi_equal_amplitudes(self):
        d = photon_pmf_dphi(amps(1, 1), math.pi / 2)
        np.testing.assert_allclose(d, 0.0, atol=1e-16)

    def test_finite_difference_oracle(self):
        d = photon_pmf_dphi(amps(SQRT2, SQRT2), 0.3)
        fd = helpers.fd_dphi(lambda p: photon_pmf(amps(SQRT2, SQRT2), p).probs, 0.3)
        np.testing.assert_allclose(d, fd, atol=1e-8)

    def test_derivative_consistency_random_tuples(self):
        # 50 seeded tuples, a,b in [0.1, 3], half with noise; then a = b = 20,
        # the brightest regime, where the difference reaches 4.1e-9
        rng = np.random.default_rng(20250811)
        cases = []
        for i in range(50):
            a = rng.uniform(0.1, 3.0)
            b = rng.uniform(0.1, 3.0)
            phi = rng.uniform(0.0, math.pi / 2)
            gamma = rng.uniform(0.1, 2 * math.pi) if i % 2 else 0.0
            cases.append((a, b, phi, gamma))
        cases.append((20.0, 20.0, 0.3, 0.0))
        for a, b, phi, gamma in cases:
            d = photon_pmf_dphi(amps(a, b), phi, gamma)
            fd = helpers.fd_dphi(lambda p: photon_pmf(amps(a, b), p, gamma).probs, phi)
            np.testing.assert_allclose(d, fd, atol=1e-8)

    @pytest.mark.parametrize("phi", [1e-8, 3e-8, 1e-7])
    def test_where_the_minus_mean_vanishes(self, phi):
        # at a = b = 1, nu- = 2 - 2 cos(phi) is 0.0, 8.9e-16 and 9.99e-15
        d = photon_pmf_dphi(amps(1, 1), phi, n_max=3)
        np.testing.assert_allclose(d, helpers.mixture_dphi_direct(1.0, 1.0, phi, 3), rtol=1e-12)

    def test_derivatives_sum_to_zero(self):
        # d/dphi of total mass vanishes up to the (tiny) truncated tail
        d = photon_pmf_dphi(amps(1.12, 0.79), 0.6)
        assert abs(d.sum()) < 1e-12


class TestFanoFactor:
    def test_poissonian_at_half_pi(self):
        assert fano_factor(amps(1, 1), math.pi / 2) == pytest.approx(1.0, abs=1e-12)

    def test_value_at_zero_phase(self):
        assert fano_factor(amps(1, 1), 0.0) == pytest.approx(3.0, abs=1e-12)

    def test_closed_form_sweep_parameters(self):
        expected = 1.0 + 4.0 * math.cos(0.3) ** 2
        assert fano_factor(amps(SQRT2, SQRT2), 0.3) == pytest.approx(expected, rel=1e-12)

    def test_closed_form_vs_moment_oracle(self):
        for a, b, phi in [(1, 1, 0.0), (SQRT2, SQRT2, 0.3), (1.12, 0.79, 0.25), (0.5, 2.0, 1.2)]:
            p = photon_pmf(amps(a, b), phi)
            mean, var = helpers.moments_by_summation(p.probs)
            assert fano_factor(amps(a, b), phi) == pytest.approx(var / mean, abs=1e-9)

    def test_noisy_moments(self):
        # the closed form against the moments of the noise-averaged pmf table
        for a, b, phi, gamma in [(SQRT2, SQRT2, 0.3, math.pi / 4), (5, 5, 0.7, 2 * math.pi),
                                 (20, 20, 0.3, 2 * math.pi)]:
            mean, var = helpers.moments_by_summation(photon_pmf(amps(a, b), phi, gamma).probs)
            assert fano_factor(amps(a, b), phi, gamma) == pytest.approx(var / mean, rel=1e-12)

    def test_zero_energy_is_domain_error(self):
        with pytest.raises(ValueError, match="Fano"):
            fano_factor(amps(0, 0), 0.3)


class TestPmfFidelity:
    def test_self_fidelity(self):
        p = photon_pmf(amps(1.12, 0.79), 0.25)
        assert pmf_fidelity(p, p) >= 1.0 - 1e-6

    def test_shifted_poisson_hand_sum(self):
        n = np.arange(40)
        base = helpers.poisson_pmf_direct(2.0, n)
        shifted = np.concatenate([[0.0], base[:-1]])
        p = PhotonPmf(probs=base, n_max=39, tail_bound=float(poisson.sf(39, 2.0)))
        q = PhotonPmf(probs=shifted, n_max=39, tail_bound=float(poisson.sf(38, 2.0)))
        hand = sum(math.sqrt(base[i] * shifted[i]) for i in range(40))
        assert pmf_fidelity(p, q) == pytest.approx(hand, rel=1e-12)

    def test_zero_padding_is_symmetric(self):
        p = photon_pmf(amps(1, 1), 0.3)
        q = PhotonPmf.from_counts(np.array([0, 1, 1, 2, 3]))
        assert pmf_fidelity(p, q) == pytest.approx(pmf_fidelity(q, p), abs=1e-15)


class TestTypes:
    def test_amplitude_validation(self):
        with pytest.raises(ValueError):
            DetectorPlaneAmplitudes(a=-0.1, b=1.0)
        with pytest.raises(ValueError):
            DetectorPlaneAmplitudes(a=math.nan, b=1.0)

    def test_pmf_validation(self):
        with pytest.raises(ValueError, match="normalization"):
            PhotonPmf(probs=np.array([0.5, 0.1]), n_max=1, tail_bound=0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            PhotonPmf(probs=np.array([1.1, -0.1]), n_max=1, tail_bound=0.0)

    def test_from_counts(self):
        p = PhotonPmf.from_counts(np.array([0, 0, 2, 1]))
        np.testing.assert_allclose(p.probs, [0.5, 0.25, 0.25])
        assert p.tail_bound == 0.0
