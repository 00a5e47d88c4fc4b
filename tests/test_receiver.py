import math

import numpy as np
import pytest

from kennedyrx.receiver import (
    ReceiverParams,
    detector_amplitudes,
    discriminate,
    error_probability,
    helstrom_bound,
)


class TestDetectorAmplitudes:
    def test_balanced_splitter(self):
        amps = detector_amplitudes(ReceiverParams(beta=1.0, alpha=1.0, tau=0.5))
        assert amps.a == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert amps.b == pytest.approx(1 / math.sqrt(2), rel=1e-15)

    def test_high_transmittance(self):
        amps = detector_amplitudes(ReceiverParams(beta=1.0, alpha=2.0, tau=0.99))
        assert amps.a == pytest.approx(0.2, rel=1e-12)
        assert amps.b == pytest.approx(0.99498743710662, rel=1e-12)

    def test_kennedy_matching_gives_equal_amplitudes(self):
        for beta, tau in [(1.0, 0.5), (0.7, 0.9), (2.0, 0.999)]:
            amps = detector_amplitudes(ReceiverParams.kennedy_matched(beta, tau))
            assert abs(amps.a - amps.b) <= 1e-12

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: ReceiverParams(beta=1.0, alpha=1.0, tau=1.5), r"tau must lie in \(0,1\)"),
            (lambda: ReceiverParams(beta=1.0, alpha=1.0, tau=0.0), "tau"),
            (lambda: ReceiverParams(beta=True, alpha=1.0, tau=0.5), "beta"),
            (lambda: error_probability(math.nan, 0.3), "beta"),
            (lambda: error_probability(1.0, math.nan), "phi"),
            (lambda: helstrom_bound(math.nan), "beta"),
            (lambda: discriminate(1.5), "photon count"),
        ],
        ids=["tau-above-1", "tau-0", "bool-beta", "nan-beta", "nan-phi", "nan-helstrom-beta",
             "fractional-count"],
    )
    def test_parameter_validation(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestDiscriminate:
    def test_dark_means_bit_zero(self):
        assert discriminate(0) == 0

    def test_light_means_bit_one(self):
        assert discriminate(1) == 1
        assert discriminate(7) == 1

    def test_coarse_graining_idempotent(self):
        for n in range(20):
            assert discriminate(n) == discriminate(min(n, 1))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            discriminate(-1)


class TestErrorProbability:
    def test_value_at_zero_offset(self):
        assert error_probability(1.0, 0.0) == pytest.approx(0.5 * math.exp(-4.0), rel=1e-15)

    def test_flipped_bits_at_pi(self):
        for beta in (0.5, 1.0, 2.0):
            expected = 1.0 - 0.5 * math.exp(-4.0 * beta * beta)
            assert error_probability(beta, math.pi) == pytest.approx(expected, rel=1e-12)

    def test_small_phase_quadratic_expansion(self):
        beta, phi = 2.0, 0.05
        pe0 = 0.5 * math.exp(-4.0 * beta * beta)
        expansion = pe0 + (0.5 + pe0) * beta * beta * phi * phi
        assert error_probability(beta, phi) == pytest.approx(expansion, rel=0.05)

    def test_zero_offset_is_minimum(self):
        # grid property from the error-probability inequality
        for beta in (0.5, 1.0, 2.0):
            pe0 = error_probability(beta, 0.0)
            for phi in np.linspace(-math.pi / 2, math.pi / 2, 1000):
                assert error_probability(beta, phi) >= pe0 - 1e-15


class TestHelstromBound:
    def test_indistinguishable_states(self):
        assert helstrom_bound(0.0) == 0.5

    def test_value_at_beta_one(self):
        # 0.5*(1 - sqrt(1 - e^-4)), evaluated independently at high precision
        assert helstrom_bound(1.0) == pytest.approx(0.00460007036958871, rel=1e-12)

    def test_factor_of_two_asymptotics(self):
        for beta in (2.0, 3.0, 5.0, 8.0):
            ratio = error_probability(beta, 0.0) / helstrom_bound(beta)
            assert ratio == pytest.approx(2.0, rel=0.01)

    def test_never_above_kennedy_error(self):
        for beta in np.linspace(0.0, 6.0, 200):
            assert helstrom_bound(beta) <= error_probability(beta, 0.0) + 1e-18
