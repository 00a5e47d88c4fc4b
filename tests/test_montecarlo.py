import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc
from scipy.stats import chi2

import helpers
from kennedyrx.estimation import (
    CountRecord,
    PhaseGrid,
    UndefinedFanoError,
    bayes_estimate,
    log_likelihood_onoff,
    log_likelihood_pnr,
    posterior,
)
from kennedyrx.montecarlo import (
    DEFAULT_M_LIST,
    InsufficientSupportError,
    SimConfig,
    _cdf_lookup,
    _cdf_table,
    _chi2_sf,
    _poisson_inversion,
    goodness_of_fit,
    run_convergence_sweep,
    run_convergence_sweeps,
    run_discrimination,
    sample_counts,
    stream,
)
from kennedyrx.photonstats import (
    DetectorPlaneAmplitudes,
    PhotonPmf,
    default_cutoff,
    fano_factor,
    photon_pmf,
)
from kennedyrx.receiver import ReceiverParams

SQRT2 = math.sqrt(2.0)


def amps(a, b):
    return DetectorPlaneAmplitudes(a=a, b=b)


def mixture_count_moments(a, b, phi, gamma, nodes=4096):
    """(mean, variance, fourth central moment) of one shot's photon count.

    The count is Poisson given nu = a^2 + b^2 + s 2ab cos(phi - psi), with the
    sign s = +-1 equiprobable and psi uniform on [-gamma/2, gamma/2].  With
    d = nu - mean, the Poisson central moments (nu, nu, nu + 3 nu^2) give
    E[(X - mean)^2 | nu] = nu + d^2 and
    E[(X - mean)^4 | nu] = nu + 3 nu^2 + 4 d nu + 6 d^2 nu + d^4,
    averaged over s and over psi by the midpoint rule.
    """
    psi = -0.5 * gamma + (np.arange(nodes) + 0.5) * (gamma / nodes)
    x = 2.0 * a * b * np.cos(phi - psi)
    nu = np.maximum(np.concatenate([a * a + b * b + x, a * a + b * b - x]), 0.0)
    mean = nu.mean()
    d = nu - mean
    var = (nu + d * d).mean()
    mu4 = (nu + 3 * nu * nu + 4 * d * nu + 6 * d * d * nu + d**4).mean()
    return mean, var, mu4


class TestStream:
    def test_same_key_reproduces(self):
        assert stream(5, 1, 2).random(4).tolist() == stream(5, 1, 2).random(4).tolist()

    def test_distinct_keys_differ(self):
        assert stream(5, 1).random(4).tolist() != stream(5, 2).random(4).tolist()

    def test_raw_words_give_the_uniforms(self):
        # the table sampler reads raw words in place of uniforms: on PCG64,
        # random() is (word >> 11) * 2**-53, so random() < 0.5 is word < 2**63
        raw, floats = stream(5, 1, 2), stream(5, 1, 2)
        for n in (1, 7, 1000, 4096, 3):
            words = raw.bit_generator.random_raw(n)
            u = floats.random(n)
            assert words.dtype == np.uint64
            assert np.array_equal((words >> 11) * 2.0**-53, u)
            assert np.array_equal(words < 2**63, u < 0.5)
        # and a raw draw leaves the generator where random() would
        assert np.array_equal(raw.random(100), floats.random(100))


class TestSampleCounts:
    def test_vacuum_gives_all_zero(self):
        cfg = SimConfig(amps=amps(0, 0), phi_star=0.3, M=100, seed=1)
        assert np.all(sample_counts(cfg).counts == 0)

    def test_deterministic(self):
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=1000, seed=123, gamma=math.pi / 4)
        first = sample_counts(cfg, replication=2)
        second = sample_counts(cfg, replication=2)
        assert np.array_equal(first.counts, second.counts)

    def test_replications_are_independent(self):
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=1000, seed=123)
        assert not np.array_equal(
            sample_counts(cfg, replication=0).counts,
            sample_counts(cfg, replication=1).counts,
        )

    def test_rejects_receiver_params(self):
        # receiver.detector_amplitudes maps physical parameters to amplitudes
        with pytest.raises(ValueError, match="amps must be DetectorPlaneAmplitudes"):
            SimConfig(amps=ReceiverParams.kennedy_matched(1.0, 0.5), phi_star=0.1, M=10, seed=0)

    @pytest.mark.parametrize(
        "field, value",
        [("gamma", -0.5), ("gamma", math.nan), ("gamma", 100.0), ("gamma", math.inf),
         ("gamma", True), ("phi_star", math.nan), ("phi_star", math.inf),
         ("phi_star", -math.inf), ("phi_star", "0.3"), ("M", 10.7), ("M", True),
         ("seed", 1.9), ("replications", 3.5), ("replication", True), ("replication", 1.0)],
    )
    def test_rejects_values_the_model_does_not_take(self, field, value):
        # gamma by the photon statistics' rule, [0, 2 pi]; phi_star finite; the
        # counts M, seed, replications and a record's replication whole numbers
        fields = dict(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=10, seed=1)
        with pytest.raises(ValueError, match=field):
            if field == "replication":
                sample_counts(SimConfig(**fields), value)
            else:
                SimConfig(**{**fields, field: value})

    def test_gof_against_model(self):
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=100_000, seed=2024)
        record = sample_counts(cfg)
        _, p_value = goodness_of_fit(record, photon_pmf(cfg.amps, 0.3))
        assert p_value > 1e-3

    def test_gof_against_noisy_model(self):
        cfg = SimConfig(
            amps=amps(SQRT2, SQRT2), phi_star=0.3, M=100_000, seed=2025, gamma=math.pi / 4
        )
        record = sample_counts(cfg)
        pmf = photon_pmf(cfg.amps, 0.3, math.pi / 4)
        _, p_value = goodness_of_fit(record, pmf)
        assert p_value > 1e-3

    def test_chi2_sf_matches_chdtrc(self):
        rng = np.random.default_rng(12)
        df = rng.integers(1, 200, size=20_000)
        x = rng.uniform(0.0, 400.0, size=20_000)
        x[::50] = 0.0
        ours = [_chi2_sf(int(k), float(v)) for k, v in zip(df, x)]
        np.testing.assert_allclose(ours, chdtrc(df, x), rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "counts, probs, dof",
        [
            ([0] * 27 + [1] * 20 + [2] * 13, [0.5, 0.3, 0.2], 2),
            (list(np.random.default_rng(13).integers(0, 10, size=100)), [0.1] * 10, 9),
        ],
    )
    def test_gof_p_value_matches_chi2_sf(self, counts, probs, dof):
        pmf = PhotonPmf(probs=np.array(probs), tail_bound=0.0)
        stat, p_value = goodness_of_fit(CountRecord(np.array(counts)), pmf)
        assert p_value == pytest.approx(float(chi2.sf(stat, dof)), rel=1e-12)

    def test_empirical_mean_converges(self):
        cfg = SimConfig(amps=amps(1.12, 0.79), phi_star=0.25, M=200_000, seed=7)
        counts = sample_counts(cfg).counts.astype(float)
        energy = 1.12**2 + 0.79**2
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - energy) <= 3.0 * se

    def test_empirical_fano_converges(self):
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=200_000, seed=8)
        x = sample_counts(cfg).counts.astype(float)
        fano_hat = x.var(ddof=1) / x.mean()
        # jackknife standard error of the Fano factor over shot-deletion
        m = x.size
        y = x - x.mean()
        q = float(np.dot(y, y))
        mean_loo = x.mean() - y / (m - 1)
        var_loo = (q - y * y * (m / (m - 1))) / (m - 2)
        fano_loo = var_loo / mean_loo
        se = math.sqrt((m - 1) / m * np.sum((fano_loo - fano_loo.mean()) ** 2))
        assert abs(fano_hat - fano_factor(amps(SQRT2, SQRT2), 0.3)) <= 3.0 * se


class TestSamplerMoments:
    @given(
        a=st.floats(0.5, 20.0),
        b=st.floats(0.5, 20.0),
        phi=st.floats(0.0, math.pi),
        gamma=st.floats(0.0, 2.0 * math.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(a=14.0, b=14.0, phi=0.3, gamma=0.0, seed=1)  # nu+ = 767
    @example(a=20.0, b=20.0, phi=0.3, gamma=0.5, seed=2)  # nu+ up to 1584
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_mean_and_variance_match_the_mixture(self, a, b, phi, gamma, seed):
        m = 2000
        cfg = SimConfig(amps=amps(a, b), phi_star=phi, M=m, seed=seed, gamma=gamma)
        x = sample_counts(cfg).counts.astype(float)
        mean, var, mu4 = mixture_count_moments(a, b, phi, gamma)
        assert abs(x.mean() - mean) <= 5.0 * math.sqrt(var / m)
        assert abs(x.var(ddof=1) - var) <= 5.0 * math.sqrt((mu4 - var * var) / m)

    @pytest.mark.parametrize("beta", [14.0, 20.0])
    def test_mean_is_right_where_exp_minus_nu_underflows(self, beta):
        # nu+ = 2 beta^2 (1 + cos 0.3) reaches 767 and 1564: exp(-nu+) is 0 in doubles
        cfg = SimConfig(amps=amps(beta, beta), phi_star=0.3, M=10_000, seed=9)
        x = sample_counts(cfg).counts.astype(float)
        mean, var, _ = mixture_count_moments(beta, beta, 0.3, 0.0)
        assert mean == pytest.approx(2.0 * beta * beta)
        assert abs(x.mean() - mean) <= 5.0 * math.sqrt(var / x.size)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 36.0, 650.0])
    def test_search_matches_the_full_length_masked_loop(self, scale):
        # below the log-space threshold the compacted search does the same
        # arithmetic in the same order as a search over all shots at every k
        def masked(rng, nu, cap):
            u = rng.random(nu.shape)
            term = np.exp(-nu)
            cum = term.copy()
            out = np.zeros(nu.shape, dtype=np.int64)
            active = u >= cum
            k = 0
            while active.any() and k < cap:
                k += 1
                term[active] *= nu[active] / k
                cum[active] += term[active]
                out[active] = k
                active &= u >= cum
            return out

        nu = scale * stream(5, 1).random(5000)
        nu[::7] = 0.0
        cap = int(2 * scale) + 40
        assert np.array_equal(
            _poisson_inversion(stream(5, 2), nu, cap), masked(stream(5, 2), nu, cap)
        )

    def test_search_cost_does_not_follow_the_cap(self):
        nu = np.full(1000, 2.0)
        tracemalloc.start()
        try:
            far = _poisson_inversion(stream(3), nu, cap=2**62)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert np.array_equal(far, _poisson_inversion(stream(3), nu, cap=64))

    def test_cap_bounds_every_draw(self):
        counts = _poisson_inversion(stream(4), np.full(100, 50.0), cap=10)
        assert counts.max() == 10


class TestCdfTable:
    """Records without phase noise come from the CDF table of the two means."""

    @given(
        a=st.floats(0.0, 40.0),
        b=st.floats(0.0, 40.0),
        phi=st.floats(0.0, math.pi),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 2000),
    )
    @example(a=14.0, b=14.0, phi=0.3, seed=1, m=2000)  # nu+ = 766: log-space terms
    @example(a=20.0, b=20.0, phi=0.0, seed=2, m=2000)  # nu+ = 1600, nu- = 0
    @example(a=1.0, b=1.0, phi=0.0, seed=3, m=500)  # nu- = 0 exactly
    @example(a=0.0, b=0.0, phi=0.3, seed=4, m=100)
    @example(a=0.0, b=2.0, phi=0.3, seed=5, m=100)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_table_draws_what_the_search_draws(self, a, b, phi, seed, m):
        # the reference is the per-shot search on the same stream, signs drawn first
        assume((a + b) ** 2 <= 1600.0)
        rng = stream(seed, m, 0)
        signs = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        nu = np.maximum(a * a + b * b + signs * (2.0 * a * b) * math.cos(phi), 0.0)
        expected = _poisson_inversion(rng, nu, cap=default_cutoff(amps(a, b)) + 64)
        cfg = SimConfig(amps=amps(a, b), phi_star=phi, M=m, seed=seed)
        assert np.array_equal(sample_counts(cfg).counts, expected)

    def test_table_truncates_at_the_cap_like_the_search(self):
        means = (0.5, 30.0)
        row = (stream(6, 1).random(5000) < 0.5).astype(np.intp)
        counts = _cdf_lookup(stream(6, 2).bit_generator.random_raw(5000), row, means, 10)
        assert counts.max() == 10
        assert np.array_equal(counts, _poisson_inversion(stream(6, 2), np.array(means)[row], 10))

    # about the acceptance means, a zero mean, a log-space mean, at their
    # caps, and a pair on either side of the log-space switch
    @pytest.mark.parametrize(
        "means,cap",
        [((0.18, 7.8), 133), ((0.0, 4.0), 120), ((0.29, 1560.2), 2124), ((700.0, 700.5), 1100)],
    )
    def test_uniforms_on_table_entries_and_bucket_edges(self, means, cap):
        # a word whose 53-bit part equals a threshold passes it, one below
        # does not, and the first and last word of every bucket get the count
        # the search gives their uniform, whatever the 11 low bits hold
        class Fixed:
            def __init__(self, u):
                self.u = u

            def random(self, shape):
                return self.u.copy()

        thresholds, buckets = _cdf_table(means, cap)
        n_buckets = buckets.size // 2
        width = 2**53 // n_buckets
        first = np.arange(n_buckets, dtype=np.uint64) * width
        entries = thresholds & (2**54 - 1)  # without the row offsets
        x = np.concatenate([entries, entries - 1, first, first + (width - 1)])
        x = x[x < 2**53]  # drops the sentinels and 0 - 1
        u = x * 2.0**-53
        for low in (0, 2**11 - 1):
            words = (x << 11) | low
            for j, nu in enumerate(means):
                row = np.full(x.size, j, dtype=np.intp)
                expected = _poisson_inversion(Fixed(u), np.full(x.size, nu), cap)
                assert np.array_equal(_cdf_lookup(words, row, means, cap), expected)

    def test_largest_table_is_small(self):
        cfg = SimConfig(amps=amps(20.0, 20.0), phi_star=0.3, M=1000, seed=7)
        _cdf_table.cache_clear()
        tracemalloc.start()
        try:
            sample_counts(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_record_memory_per_shot(self):
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=10**6, seed=8)
        sample_counts(replace(cfg, M=10))  # the table of this configuration
        tracemalloc.start()
        try:
            sample_counts(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * cfg.M

    def test_cached_table_is_read_only(self):
        thresholds, buckets = _cdf_table((0.5, 30.0), 100)
        with pytest.raises(ValueError):
            thresholds[0] = 0
        with pytest.raises(ValueError):
            buckets[0] = 1


class TestToOnOff:
    """On/off detection reads a count record through its coarse-graining
    {0}, {n >= 1}: m_off ln p_0 + m_on ln(1 - p_0)."""

    GRID = PhaseGrid(size=101)

    def log_p0(self, a, b):
        nu_p = a * a + b * b + 2.0 * a * b * np.cos(self.GRID.points)
        nu_m = a * a + b * b - 2.0 * a * b * np.cos(self.GRID.points)
        return np.log(0.5 * (np.exp(-nu_p) + np.exp(-nu_m)))

    def test_all_off(self):
        ll = log_likelihood_onoff(CountRecord(counts=np.array([0, 0, 0])), amps(1, 1), 0.0, self.GRID)
        np.testing.assert_allclose(ll, 3.0 * self.log_p0(1.0, 1.0), rtol=1e-12)

    def test_mixed(self):
        record = CountRecord(counts=np.array([1, 0, 2, 5]))
        ll = log_likelihood_onoff(record, amps(1, 1), 0.0, self.GRID)
        log_p0 = self.log_p0(1.0, 1.0)
        np.testing.assert_allclose(ll, log_p0 + 3.0 * np.log1p(-np.exp(log_p0)), rtol=1e-12)

    def test_partition(self):
        # the record of an on/off detector is the count record of 0s and 1s
        cfg = SimConfig(amps=amps(1, 1), phi_star=0.4, M=777, seed=3)
        record = sample_counts(cfg)
        clicks = CountRecord(counts=np.minimum(record.counts, 1))
        ll = log_likelihood_onoff(record, cfg.amps, 0.0, self.GRID)
        assert np.array_equal(ll, log_likelihood_onoff(clicks, cfg.amps, 0.0, self.GRID))
        m_off = int(np.count_nonzero(record.counts == 0))
        log_p0 = self.log_p0(1.0, 1.0)
        want = m_off * log_p0 + (record.sample_size - m_off) * np.log1p(-np.exp(log_p0))
        np.testing.assert_allclose(ll, want, rtol=1e-12)


class TestRunDiscrimination:
    def test_error_rate_at_zero_offset(self):
        # tau -> 1 proxy: a = b = beta = 1
        cfg = SimConfig(amps=amps(1, 1), phi_star=0.0, M=100_000, seed=31)
        bits = stream(31, 1).integers(0, 2, size=cfg.M)
        result = run_discrimination(cfg, bits)
        expected = 0.5 * math.exp(-4.0)
        sigma = math.sqrt(expected * (1 - expected) / cfg.M)
        assert abs(result.error_rate - expected) <= 3.0 * sigma

    def test_error_rate_at_pi(self):
        cfg = SimConfig(amps=amps(1, 1), phi_star=math.pi, M=100_000, seed=32)
        bits = stream(32, 1).integers(0, 2, size=cfg.M)
        result = run_discrimination(cfg, bits)
        expected = 1.0 - 0.5 * math.exp(-4.0)
        sigma = math.sqrt(expected * (1 - expected) / cfg.M)
        assert abs(result.error_rate - expected) <= 3.0 * sigma

    def test_small_offset_quadratic_growth(self):
        beta, phi = 2.0, 0.05
        cfg = SimConfig(amps=amps(beta, beta), phi_star=phi, M=100_000, seed=33)
        bits = stream(33, 1).integers(0, 2, size=cfg.M)
        result = run_discrimination(cfg, bits)
        pe0 = 0.5 * math.exp(-4.0 * beta * beta)
        expected = pe0 + (0.5 + pe0) * beta * beta * phi * phi
        sigma = math.sqrt(expected * (1 - expected) / cfg.M)
        assert abs(result.error_rate - expected) <= 3.0 * sigma

    def test_bit_length_mismatch(self):
        cfg = SimConfig(amps=amps(1, 1), phi_star=0.0, M=10, seed=1)
        with pytest.raises(ValueError, match="bits"):
            run_discrimination(cfg, [0, 1])


class TestConvergenceSweep:
    def test_rows_and_determinism(self):
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=1000, seed=55, replications=5)
        result = run_convergence_sweep(cfg, "bayes-pnr", (100, 300, 1000))
        again = run_convergence_sweep(cfg, "bayes-pnr", (100, 300, 1000))
        assert [r.M for r in result.rows] == [100, 300, 1000]
        assert result.m_list == tuple(r.M for r in result.rows) == (100, 300, 1000)
        assert np.array_equal(result.estimates, again.estimates)
        assert result.rows == again.rows
        for row in result.rows:
            assert row.crlb is not None and row.crlb > 0

    def test_ratio_near_one_at_large_m(self):
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=3000, seed=56, replications=10)
        result = run_convergence_sweep(cfg, "bayes-pnr", (1000, 3000))
        assert result.rows[-1].mean_ratio == pytest.approx(1.0, abs=0.03)

    def test_monotone_error_decay_with_one_inversion_allowed(self):
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=1, seed=57, replications=20)
        for method in ("bayes-pnr", "bayes-onoff", "fano-inversion"):
            result = run_convergence_sweep(cfg, method, DEFAULT_M_LIST)
            mean_abs_err = np.mean(np.abs(result.estimates - 0.3), axis=1)
            inversions = int(np.sum(np.diff(mean_abs_err) > 0))
            assert inversions <= 1, f"{method}: {mean_abs_err}"

    def test_noise_inflates_variance_within_bounds(self):
        # matched-M variance ratio between gamma=pi/4 and gamma=0 lands in (1, 3]
        clean = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=10_000, seed=58, replications=20)
        noisy = SimConfig(
            amps=amps(SQRT2, SQRT2), phi_star=0.3, M=10_000, seed=58,
            gamma=math.pi / 4, replications=20,
        )
        for method in ("bayes-pnr", "bayes-onoff"):
            var_clean = run_convergence_sweep(clean, method, (10_000,)).rows[0].mean_variance
            var_noisy = run_convergence_sweep(noisy, method, (10_000,)).rows[0].mean_variance
            assert 1.0 < var_noisy / var_clean <= 3.0

    def test_negative_phase_gives_the_same_rows(self):
        for method in ("bayes-pnr", "bayes-onoff", "fano-inversion"):
            rows = [
                run_convergence_sweep(
                    SimConfig(amps=amps(SQRT2, SQRT2), phi_star=phi, M=1, seed=59, replications=3),
                    method,
                    (100, 300),
                ).rows
                for phi in (0.3, -0.3)
            ]
            assert rows[0] == rows[1]

    def test_phase_beyond_half_pi_is_compared_with_its_fold(self):
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=2.0, M=1, seed=60, replications=10)
        row = run_convergence_sweep(cfg, "bayes-pnr", (3000,)).rows[0]
        assert row.mean_ratio == pytest.approx(1.0, abs=0.03)
        folded = replace(cfg, phi_star=math.pi - 2.0)
        assert row.crlb == pytest.approx(
            run_convergence_sweep(folded, "bayes-pnr", (3000,)).rows[0].crlb, rel=1e-9
        )

    @pytest.mark.parametrize("phi", [0.0, math.pi, -2.0 * math.pi])
    def test_rejects_phase_folding_to_zero(self, phi):
        cfg = SimConfig(amps=amps(1, 1), phi_star=phi, M=10, seed=1)
        with pytest.raises(ValueError, match="fold to 0"):
            run_convergence_sweep(cfg, "bayes-pnr", (100,))

    @pytest.mark.parametrize(
        "m_list, match", [((100, 100), "increasing"), ([100.5], "m_list"), (["100"], "m_list")]
    )
    def test_rejects_bad_m_list(self, m_list, match):
        cfg = SimConfig(amps=amps(1, 1), phi_star=0.3, M=10, seed=1)
        with pytest.raises(ValueError, match=match):
            run_convergence_sweep(cfg, "bayes-pnr", m_list)

    def test_rejects_unknown_method(self):
        cfg = SimConfig(amps=amps(1, 1), phi_star=0.3, M=10, seed=1)
        with pytest.raises(ValueError, match="method"):
            run_convergence_sweep(cfg, "maximum-likelihood", (100,))


class TestConvergenceSweeps:
    METHODS = ("bayes-pnr", "bayes-onoff", "fano-inversion")

    def test_shared_records_match_one_method_sweeps(self):
        for gamma in (0.0, 0.5):
            cfg = SimConfig(
                amps=amps(SQRT2, SQRT2), phi_star=0.3, M=1, seed=61, gamma=gamma, replications=4
            )
            results = run_convergence_sweeps(cfg, self.METHODS, (100, 300))
            assert [r.method for r in results] == list(self.METHODS)
            for result in results:
                alone = run_convergence_sweep(cfg, result.method, (100, 300))
                assert np.array_equal(result.estimates, alone.estimates)
                assert np.array_equal(result.variances, alone.variances)
                assert result.rows == alone.rows

    def test_repeated_methods_each_get_their_own_results(self):
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=1, seed=65, replications=3)
        methods = ("fano-inversion", "bayes-pnr", "fano-inversion", "bayes-pnr")
        results = run_convergence_sweeps(cfg, methods, (30, 100))
        for result in results:
            alone = run_convergence_sweep(cfg, result.method, (30, 100))
            assert np.array_equal(result.estimates, alone.estimates)
            assert np.array_equal(result.variances, alone.variances)

    def test_draws_each_record_once(self, monkeypatch):
        import kennedyrx.montecarlo as mc

        drawn = []

        draw = mc._draw_record

        def counting(cfg, replication):
            drawn.append((cfg.M, replication))
            return draw(cfg, replication)

        monkeypatch.setattr(mc, "_draw_record", counting)
        cfg = SimConfig(amps=amps(1, 1), phi_star=0.3, M=1, seed=62, replications=3)
        run_convergence_sweeps(cfg, self.METHODS, (10, 20))
        assert sorted(drawn) == [(m, rep) for m in (10, 20) for rep in range(3)]

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_matches_the_per_record_route(self, gamma):
        # Bayes: one posterior per record; Fano: a jackknife that recomputes
        # the moments of the record minus each shot
        m_list = (30, 100, 300)
        cfg = SimConfig(
            amps=amps(SQRT2, SQRT2), phi_star=0.3, M=1, seed=63, gamma=gamma, replications=4
        )
        grid = PhaseGrid()
        results = run_convergence_sweeps(cfg, self.METHODS, m_list, grid)
        expected = np.empty((len(self.METHODS), 2, len(m_list), cfg.replications))
        for i, m in enumerate(m_list):
            for rep in range(cfg.replications):
                record = sample_counts(replace(cfg, M=m), replication=rep)
                for j, ll in enumerate((
                    log_likelihood_pnr(record, cfg.amps, gamma, grid),
                    log_likelihood_onoff(record, cfg.amps, gamma, grid),
                )):
                    est = bayes_estimate(posterior(ll, grid))
                    expected[j, :, i, rep] = est.mean, est.variance
                expected[2, :, i, rep] = helpers.fano_jackknife_brute(
                    record.counts, SQRT2, SQRT2, gamma
                )
        for j, result in enumerate(results):
            np.testing.assert_allclose(result.estimates, expected[j, 0], rtol=1e-10, atol=0)
            np.testing.assert_allclose(result.variances, expected[j, 1], rtol=1e-10, atol=0)

    def test_many_replications_on_a_fine_grid_in_bounded_memory(self):
        # 2000 log-likelihood rows of 20001 points would take 320 MB at once
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=1, seed=64, replications=2000)
        tracemalloc.start()
        try:
            results = run_convergence_sweeps(
                cfg, ("bayes-pnr", "bayes-onoff"), (3,), PhaseGrid(size=20001)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        for result in results:
            assert result.estimates.shape == (1, 2000)
            assert np.isfinite(result.estimates).all() and np.isfinite(result.variances).all()

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_blocks_of_replications_match_one_block(self, gamma, monkeypatch):
        import kennedyrx.estimation as est

        cfg = SimConfig(
            amps=amps(SQRT2, SQRT2), phi_star=0.3, M=1, seed=66, gamma=gamma, replications=8
        )
        grid = PhaseGrid(size=201)
        whole = run_convergence_sweeps(cfg, self.METHODS, (30, 100), grid)
        # three replications per block: blocks of 3, 3 and 2
        monkeypatch.setattr(est, "_BLOCK_CELLS", 3 * max(default_cutoff(cfg.amps) + 65, grid.size))
        blocked = run_convergence_sweeps(cfg, self.METHODS, (30, 100), grid)
        for one, many in zip(whole, blocked):
            np.testing.assert_allclose(many.estimates, one.estimates, rtol=1e-12, atol=0)
            np.testing.assert_allclose(many.variances, one.variances, rtol=1e-12, atol=0)

    def test_all_zero_record_in_a_block_raises(self):
        # about 0.01 photons per shot: some 3-shot records are all zero
        cfg = SimConfig(amps=amps(0.05, 0.05), phi_star=0.3, M=1, seed=67, replications=20)
        assert any(
            not sample_counts(replace(cfg, M=3), rep).counts.any() for rep in range(20)
        )
        with pytest.raises(UndefinedFanoError):
            run_convergence_sweeps(cfg, self.METHODS, (3, 10))

    @pytest.mark.parametrize("methods", [(), ("bayes-pnr", "maximum-likelihood")])
    def test_rejects_bad_methods(self, methods):
        cfg = SimConfig(amps=amps(1, 1), phi_star=0.3, M=10, seed=1)
        with pytest.raises(ValueError, match="method"):
            run_convergence_sweeps(cfg, methods, (100,))


class TestGoodnessOfFit:
    def test_power_against_wrong_phase(self):
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=10_000, seed=4)
        record = sample_counts(cfg)
        _, p_value = goodness_of_fit(record, photon_pmf(cfg.amps, 0.8))
        assert p_value < 1e-6

    def test_degenerate_support_raises(self):
        record = CountRecord(counts=np.zeros(100, dtype=int))
        vacuum = photon_pmf(amps(0, 0), 0.0)
        with pytest.raises(InsufficientSupportError):
            goodness_of_fit(record, vacuum)

    def test_needs_fifty_samples(self):
        cfg = SimConfig(amps=amps(1, 1), phi_star=0.3, M=49, seed=5)
        with pytest.raises(ValueError, match="50"):
            goodness_of_fit(sample_counts(cfg), photon_pmf(amps(1, 1), 0.3))

    def test_memory_does_not_follow_the_largest_count(self):
        # a dense occurrence vector up to n = 10^7 would take 76 MB
        record = CountRecord(counts=np.array([0, 1, 2, 3] * 15 + [10**7]))
        pmf = photon_pmf(amps(1, 1), 0.3)
        tracemalloc.start()
        try:
            stat, p = goodness_of_fit(record, pmf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert stat > 0.0 and 0.0 <= p <= 1.0

    def test_statistic_is_nonnegative(self):
        cfg = SimConfig(amps=amps(1, 1), phi_star=0.5, M=5000, seed=6)
        stat, p = goodness_of_fit(sample_counts(cfg), photon_pmf(amps(1, 1), 0.5))
        assert stat >= 0.0 and 0.0 <= p <= 1.0
