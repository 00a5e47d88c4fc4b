import math
import tracemalloc
import warnings

import numpy as np
import pytest

import helpers
from kennedyrx.estimation import (
    CountRecord,
    DegenerateEvidenceError,
    PhaseEstimate,
    PhaseGrid,
    PhasePosterior,
    UndefinedFanoError,
    bayes_estimate,
    bayes_estimates,
    crlb_variance,
    empirical_fano,
    fano_inversion_estimate,
    fisher_onoff,
    fisher_pnr,
    invert_fano,
    log_likelihood_onoff,
    log_likelihood_pnr,
    posterior,
    sequential_update,
    uniform_posterior,
)
from kennedyrx import estimation, photonstats
from kennedyrx.estimation import _log_columns, _loglik
from kennedyrx.montecarlo import SimConfig, sample_counts
from kennedyrx.photonstats import (
    DetectorPlaneAmplitudes,
    dphi_table,
    fano_factor,
    photon_pmf,
    pmf_table,
)

SQRT2 = math.sqrt(2.0)
GRID = PhaseGrid()


def amps(a, b):
    return DetectorPlaneAmplitudes(a=a, b=b)


class TestRecords:
    def test_count_record_rejects_negative(self):
        with pytest.raises(ValueError):
            CountRecord(counts=np.array([1, -1]))

    def test_count_record_rejects_unsigned_counts_beyond_int64(self):
        # 2**63 would wrap to a negative count in the int64 record
        with pytest.raises(ValueError, match="2\\*\\*63 - 1"):
            CountRecord(counts=np.array([2**63, 3], dtype=np.uint64))

    def test_count_record_keeps_largest_int64_count(self):
        rec = CountRecord(counts=np.array([2**63 - 1, 3], dtype=np.uint64))
        assert rec.counts.dtype == np.int64
        assert rec.counts.tolist() == [2**63 - 1, 3]

    def test_histogram_is_the_sparse_occurrence_count(self):
        rec = CountRecord(counts=np.array([3, 0, 3, 7, 0, 3]))
        values, occ = rec.histogram
        assert values.tolist() == [0, 3, 7] and occ.tolist() == [2, 3, 1]
        assert rec.histogram is rec.histogram
        assert not values.flags.writeable and not occ.flags.writeable
        empty = CountRecord(counts=np.array([], dtype=int)).histogram
        assert empty[0].size == 0 and empty[1].size == 0


class TestLogLikelihoodPnr:
    def test_empty_record_is_flat(self):
        ll = log_likelihood_pnr(CountRecord(counts=np.array([], dtype=int)), amps(1, 1), 0.0, GRID)
        assert np.all(ll == 0.0)

    def test_single_off_event_closed_form(self):
        ll = log_likelihood_pnr(CountRecord(counts=np.array([0])), amps(1, 1), 0.0, GRID)
        phis = GRID.points
        nu_p = 2.0 + 2.0 * np.cos(phis)
        nu_m = 2.0 - 2.0 * np.cos(phis)
        expected = np.log(0.5 * (np.exp(-nu_p) + np.exp(-nu_m)))
        np.testing.assert_allclose(ll, expected, atol=1e-12)

    def test_count_whose_p_underflows_stays_finite(self):
        # at a = b = 14 a count of 1500 has p_n below the smallest double
        # towards pi/2, where the log of the linear mixture is -inf; the model
        # allows it, and its ln p_n is the log-sum-exp of the two components
        counts = np.array([1500, 700])
        assert helpers.mixture_pmf_direct(14.0, 14.0, math.pi / 2, counts[:1])[0] == 0.0
        ll = log_likelihood_pnr(CountRecord(counts=counts), amps(14, 14), 0.0, GRID)
        ln_fact = np.array([math.lgamma(n + 1.0) for n in counts])
        expected = []
        for phi in GRID.points:
            nu = 392.0 + np.array([392.0, -392.0]) * math.cos(phi)
            with np.errstate(divide="ignore"):
                terms = counts * np.log(np.maximum(nu, 0.0))[:, None] - nu[:, None] - ln_fact
            expected.append((np.logaddexp(*terms) - math.log(2.0)).sum())
        assert np.isfinite(ll).all()
        np.testing.assert_allclose(ll, expected, rtol=1e-12)

    def test_count_far_above_the_cutoff_gives_a_finite_posterior(self):
        # at a = b = sqrt 2 the cutoff is 65 and p_300 is below 1e-347 at every
        # phase; at phi = 0, where nu- = 0, ln p_300 = ln(Pois(300; 8) / 2)
        a = amps(SQRT2, SQRT2)
        ll = log_likelihood_pnr(CountRecord(counts=np.array([1, 0, 2, 300])), a, 0.0, GRID)
        assert np.isfinite(ll).all() and ll.max() < -800.0
        expected = 300 * math.log(8.0) - 8.0 - math.lgamma(301.0) - math.log(2.0)
        assert _log_columns(a, 0.0, GRID, "pnr", [300])[0][0] == pytest.approx(expected, rel=1e-14)
        est = bayes_estimate(posterior(ll, GRID))
        assert 0.0 < est.mean < math.pi / 4 and est.variance > 0.0

    def test_argmax_near_truth(self):
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=10_000, seed=11)
        record = sample_counts(cfg)
        ll = log_likelihood_pnr(record, cfg.amps, 0.0, GRID)
        assert abs(GRID.points[np.argmax(ll)] - 0.3) < 0.02


class TestLikelihoodKernel:
    def test_rows_equal_their_one_row_results(self):
        # at a = b = 14 a count of 1500 has p_n below 1e-300 towards pi/2,
        # which stays finite in log space; the vacuum forbids a count of 1 at
        # every grid point, and a row that leaves that bin empty must not get
        # 0 * -inf
        a14 = amps(14, 14)
        assert np.isfinite(_log_columns(a14, 0.0, GRID, "pnr", [1500])[0]).all()
        assert _log_columns(a14, 0.0, GRID, "pnr", [1500])[0].min() < -700.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _loglik(np.array([700, 1500]), np.array([[1.0, 1.0], [2.0, 0.0]]), "pnr",
                           a14, 0.0, GRID)
            vacuum = _loglik(np.array([0, 1]), np.array([[1.0, 1.0], [2.0, 0.0]]), "pnr",
                             amps(0, 0), 0.0, GRID)
        singles = [
            log_likelihood_pnr(CountRecord(counts=np.array(c)), a14, 0.0, GRID)
            for c in ([700, 1500], [700, 700])
        ]
        assert np.isfinite(rows).all()
        for row, single in zip(rows, singles):
            np.testing.assert_allclose(row, single, rtol=1e-13, atol=0)
        assert np.isneginf(vacuum[0]).all() and np.all(vacuum[1] == 0.0)

    def test_column_cache_keys_on_the_whole_model_and_stays_bounded(self):
        # a hit is the cached read-only column, whether one count or a batch
        # asks; grids that differ only in size, or amplitudes only in b, are
        # different models; a batch of 300 new counts leaves 256 columns
        a = amps(SQRT2, SQRT2)
        col = _log_columns(a, 0.0, GRID, "pnr", [3])[0]
        assert not col.flags.writeable
        assert _log_columns(amps(SQRT2, SQRT2), 0.0, PhaseGrid(), "pnr", [3])[0] is col
        assert _log_columns(a, 0.0, GRID, "pnr", [7, 3])[1] is col
        assert _log_columns(a, 0.0, PhaseGrid(size=2000), "pnr", [3])[0].size == 2000
        assert not np.array_equal(_log_columns(amps(SQRT2, 1.0), 0.0, GRID, "pnr", [3])[0], col)
        cols = _log_columns(amps(2.0, 1.0), 0.0, GRID, "pnr", range(300))
        assert len(estimation._LOG_COLUMNS) == 256
        assert all(estimation._LOG_COLUMNS[amps(2.0, 1.0), 0.0, GRID, "pnr", n] is cols[n]
                   for n in range(44, 300))

    def test_one_bound_covers_both_kinds(self):
        # the on/off bin {0} is the pnr column of n = 0 itself; on/off columns
        # count against the same 256, and an evicted one comes back unchanged
        a = amps(1.12, 0.79)
        off, on = _log_columns(a, 0.5, GRID, "onoff", [0, 1])
        assert _log_columns(a, 0.5, GRID, "pnr", [0])[0] is off
        assert not on.flags.writeable
        _log_columns(amps(2.0, 1.0), 0.0, GRID, "pnr", range(300))
        assert len(estimation._LOG_COLUMNS) == 256
        assert (a, 0.5, GRID, "onoff", 1) not in estimation._LOG_COLUMNS
        assert np.array_equal(_log_columns(a, 0.5, GRID, "onoff", [1])[0], on)

    def test_columns_beyond_cutoff_match_direct_mixture(self):
        # the cutoff at a = b = sqrt 2 is 65
        grid, ns = PhaseGrid(size=7), np.array([150, 0, 5])
        rows = np.exp(_log_columns(amps(SQRT2, SQRT2), 0.0, grid, "pnr", ns)).T
        for phi, row in zip(grid.points, rows):
            np.testing.assert_allclose(
                row, helpers.mixture_pmf_direct(SQRT2, SQRT2, phi, ns), rtol=1e-13, atol=0
            )

    def test_noisy_columns_match_table(self):
        grid = PhaseGrid(size=5)
        table = pmf_table(amps(1.12, 0.79), grid.points, 0.5)
        cols = _log_columns(amps(1.12, 0.79), 0.5, grid, "pnr", [7, 0])
        np.testing.assert_allclose(np.exp(cols).T, table[:, [7, 0]], rtol=1e-14, atol=0)

    def test_a_column_does_not_depend_on_the_counts_beside_it(self):
        # 3000 lies beyond the ln n! table, 5 within it; the cache holds columns alone
        a = amps(1.3, 0.6)
        estimation._LOG_COLUMNS.clear()
        fresh = photonstats._log_tables(a, GRID.points, np.array([5]), 0.0)[0][:, 0]
        assert np.array_equal(_log_columns(a, 0.0, GRID, "pnr", [5, 3000])[0], fresh)

    def test_many_distinct_counts_on_a_fine_grid_in_bounded_memory(self):
        # 500 ln p_n columns of 20001 points would take 80 MB at once, and
        # their -inf-masked copy as much again
        a20, fine = amps(20, 20), PhaseGrid(size=20001)
        record = CountRecord(counts=np.arange(500))
        tracemalloc.start()
        try:
            ll = log_likelihood_pnr(record, a20, 0.0, fine)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * 2**20
        want = np.zeros(fine.size)
        for n in range(500):
            want += _log_columns(a20, 0.0, fine, "pnr", [n])[0]
        assert np.array_equal(np.isneginf(ll), np.isneginf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(ll[finite], want[finite], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["pnr", "onoff"])
    def test_blocked_rows_match_per_record_posteriors(self, kind, monkeypatch):
        # blocks of three rows and of three bins, so seven records span a
        # partial last block of each
        monkeypatch.setattr(estimation, "_BLOCK_CELLS", 3 * GRID.size)
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=200, seed=23)
        records = [sample_counts(cfg, replication=rep) for rep in range(7)]
        values = np.arange(max(int(r.counts.max()) for r in records) + 1)
        occupancy = np.array([np.bincount(r.counts, minlength=values.size) for r in records])
        means, variances = bayes_estimates(values, occupancy, cfg.amps, 0.0, GRID, kind)
        for record, mean, variance in zip(records, means, variances):
            if kind == "pnr":
                ll = log_likelihood_pnr(record, cfg.amps, 0.0, GRID)
            else:
                ll = log_likelihood_onoff(record, cfg.amps, 0.0, GRID)
            want = bayes_estimate(posterior(ll, GRID))
            assert mean == pytest.approx(want.mean, rel=1e-12)
            assert variance == pytest.approx(want.variance, rel=1e-10)

    @pytest.mark.parametrize("kind", ["pnr", "onoff"])
    def test_impossible_row_in_a_block_raises(self, kind):
        # vacuum never yields a photon: the middle record is impossible, the
        # others are flat posteriors
        values, occupancy = np.array([0, 3]), np.array([[5, 0], [4, 1], [5, 0]])
        with pytest.raises(DegenerateEvidenceError):
            bayes_estimates(values, occupancy, amps(0, 0), 0.0, GRID, kind)
        means, _ = bayes_estimates(values, occupancy[[0, 2]], amps(0, 0), 0.0, GRID, kind)
        np.testing.assert_allclose(means, math.pi / 4, rtol=1e-12)

    def test_unknown_detector_kind_raises(self):
        with pytest.raises(ValueError, match="detector_kind"):
            bayes_estimates(np.array([1]), np.array([[1]]), amps(1, 1), 0.0, GRID, "apd")

    @pytest.mark.parametrize("kind", ["PNR", "bogus", None, ["pnr"]])
    @pytest.mark.parametrize("entry", ["sequential_update", "bayes_estimates"])
    def test_detector_kind_is_one_of_the_two_names(self, entry, kind):
        # no case folding, and an unhashable kind raises the same ValueError
        calls = {
            "sequential_update": lambda: sequential_update(
                uniform_posterior(GRID), 1, amps(1, 1), 0.0, detector_kind=kind),
            "bayes_estimates": lambda: bayes_estimates(
                np.array([1]), np.array([[1]]), amps(1, 1), 0.0, GRID, kind),
        }
        with pytest.raises(ValueError) as info:
            calls[entry]()
        assert str(info.value) == f"detector_kind must be 'onoff' or 'pnr', got {kind!r}"


BATCH_ESTIMATORS = {
    "bayes-pnr": lambda v, o: bayes_estimates(v, o, amps(SQRT2, SQRT2), 0.0, GRID, "pnr"),
    "bayes-onoff": lambda v, o: bayes_estimates(v, o, amps(SQRT2, SQRT2), 0.0, GRID, "onoff"),
    "fano": lambda v, o: estimation.fano_inversion_estimates(v, o, amps(SQRT2, SQRT2)),
}


class TestHistogramRows:
    """The batch estimators read distinct counts in ascending order and one row
    of their nonnegative integer occurrences per record, and reject anything else."""

    @staticmethod
    def record_rows():
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=3000, seed=1)
        values, occurrences = sample_counts(cfg).histogram
        return values, occurrences[None]

    @pytest.mark.parametrize("method", BATCH_ESTIMATORS)
    def test_reversed_values_with_their_columns_raise(self, method):
        values, occupancy = self.record_rows()
        assert abs(BATCH_ESTIMATORS[method](values, occupancy)[0][0] - 0.3) < 0.1
        with pytest.raises(ValueError, match="ascending"):
            BATCH_ESTIMATORS[method](values[::-1], occupancy[:, ::-1])

    @pytest.mark.parametrize("method", BATCH_ESTIMATORS)
    @pytest.mark.parametrize(
        "values, occupancy, match",
        [
            ([-1, 0, 3], [[5, 5, 5]], "values"),
            ([0, 0, 3], [[5, 5, 5]], "values"),
            ([0.0, 1.0, 3.0], [[5, 5, 5]], "values"),
            ([[0, 1, 3]], [[5, 5, 5]], "values"),
            ([0, 1, 3], [5, 5, 5], "occupancy"),
            ([0, 1, 3], [[5, 5]], "occupancy"),
            ([0, 1, 3], [[5, -1, 5]], "occupancy"),
            ([0, 1, 3], [[5.0, 5.0, 5.0]], "occupancy"),
        ],
        ids=["negative", "repeated", "float-values", "2d-values", "1d-occupancy",
             "missing-column", "negative-occupancy", "float-occupancy"],
    )
    def test_rows_that_are_no_histogram_raise(self, method, values, occupancy, match):
        with pytest.raises(ValueError, match=match):
            BATCH_ESTIMATORS[method](np.array(values), np.array(occupancy))


class TestPosteriorWindow:
    """Block moments run on the columns where some row is within 746 of its
    peak; outside them exp is exactly 0 in every row."""

    def test_exp_is_exactly_zero_beyond_the_window(self):
        assert np.exp(-estimation._EXP_UNDERFLOW) == 0.0
        assert np.exp(-745.0) > 0.0

    @pytest.mark.parametrize("kind", ["pnr", "onoff"])
    def test_rows_peaking_far_apart_match_their_one_row_posteriors(self, kind):
        # records at phi* = 0.2 and 1.2 in one block: most cells underflow,
        # and the window spans both peaks
        m = 30_000
        records = [
            sample_counts(SimConfig(amps=amps(SQRT2, SQRT2), phi_star=phi, M=m, seed=24), rep)
            for phi in (0.2, 1.2)
            for rep in range(3)
        ]
        values = np.arange(max(int(r.counts.max()) for r in records) + 1)
        occupancy = np.array([np.bincount(r.counts, minlength=values.size) for r in records])
        lls = [
            (log_likelihood_pnr if kind == "pnr" else log_likelihood_onoff)(
                record, amps(SQRT2, SQRT2), 0.0, GRID
            )
            for record in records
        ]
        below = np.array([ll - ll.max() < -estimation._EXP_UNDERFLOW for ll in lls])
        assert below.mean() > 0.5
        assert below[:, np.searchsorted(GRID.points, 0.7)].all()  # between the peaks
        means, variances = bayes_estimates(values, occupancy, amps(SQRT2, SQRT2), 0.0, GRID, kind)
        assert np.all(np.abs(means[:3] - 0.2) < 0.1) and np.all(np.abs(means[3:] - 1.2) < 0.1)
        for ll, mean, variance in zip(lls, means, variances):
            want = bayes_estimate(posterior(ll, GRID))
            assert mean == pytest.approx(want.mean, rel=1e-12)
            assert variance == pytest.approx(want.variance, rel=1e-10)

    @pytest.mark.parametrize(
        "bad,error,match",
        [
            (np.nan, ValueError, "NaN"),
            (-np.inf, DegenerateEvidenceError, "vanishes"),
            (np.inf, DegenerateEvidenceError, "vanishes"),
        ],
    )
    def test_nan_or_peakless_row_raises_what_posterior_raises(self, bad, error, match):
        pts = GRID.points
        good = -0.5 * ((pts - 0.3) / 1e-3) ** 2
        row = np.full(GRID.size, -np.inf)
        row[[7, 1200]] = bad
        with pytest.raises(error, match=match):
            posterior(row, GRID)
        with pytest.raises(error, match=match):
            estimation._posterior_moments(np.array([good, row, good]), GRID)

    def test_first_failing_row_decides_the_error(self):
        good = -0.5 * ((GRID.points - 0.3) / 1e-3) ** 2
        nan_row, dead_row = np.full(GRID.size, np.nan), np.full(GRID.size, -np.inf)
        with pytest.raises(DegenerateEvidenceError):
            estimation._posterior_moments(np.array([good, dead_row, nan_row]), GRID)
        with pytest.raises(ValueError, match="NaN"):
            estimation._posterior_moments(np.array([good, nan_row, dead_row]), GRID)


class TestLogLikelihoodOnoff:
    def test_empty_record_is_flat(self):
        ll = log_likelihood_onoff(CountRecord(counts=np.array([], dtype=int)), amps(1, 1), 0.0, GRID)
        assert np.all(ll == 0.0)

    def test_all_on_record(self):
        m = 17
        ll = log_likelihood_onoff(CountRecord(counts=np.ones(m, dtype=int)), amps(1, 1), 0.0, GRID)
        p0 = photon_pmf(amps(1, 1), 0.0).probs[0]
        # spot-check the first grid point against the closed form
        assert ll[0] == pytest.approx(m * math.log1p(-p0), rel=1e-12)

    def test_on_column_is_cached_and_read_only(self):
        a = amps(1.12, 0.79)
        on = _log_columns(a, 0.5, GRID, "onoff", [1])[0]
        assert _log_columns(a, 0.5, GRID, "onoff", [1])[0] is on
        assert not on.flags.writeable
        with np.errstate(divide="ignore"):
            assert np.array_equal(on, np.log1p(-np.exp(_log_columns(a, 0.5, GRID, "pnr", [0])[0])))

    @pytest.mark.parametrize("a", [0.0, 1e-160])
    def test_near_vacuum_on_column_is_never_nan(self, a):
        # ln p_0 of a vacuum beam is 0 to within the rounding of the noise
        # average, where 1 - p_0 holds no digit of P_on
        assert np.abs(_log_columns(amps(a, a), 0.5, GRID, "pnr", [0])[0]).max() < 1e-14
        assert not np.isnan(_log_columns(amps(a, a), 0.5, GRID, "onoff", [1])[0]).any()
        ll = log_likelihood_onoff(CountRecord(counts=np.array([0, 1])), amps(a, a), 0.5, GRID)
        with pytest.raises(DegenerateEvidenceError):
            posterior(ll, GRID)

    def test_coarse_grained_equivalence(self):
        # on/off likelihood == PNR likelihood with all n>0 merged into one bin
        cfg = SimConfig(amps=amps(1.12, 0.79), phi_star=0.25, M=500, seed=3)
        record = sample_counts(cfg)
        m_off = int(np.count_nonzero(record.counts == 0))
        m_on = record.sample_size - m_off
        ll_onoff = log_likelihood_onoff(record, cfg.amps, 0.0, GRID)
        n = np.arange(photon_pmf(cfg.amps, 0.0).n_max + 1)
        merged = np.empty(GRID.size)
        for i, phi in enumerate(GRID.points):
            pmf = helpers.mixture_pmf_direct(1.12, 0.79, phi, n)
            merged[i] = m_off * math.log(pmf[0]) + m_on * math.log(
                1.0 - pmf[0]
            )
        np.testing.assert_allclose(ll_onoff, merged, atol=1e-10)


class TestPosterior:
    def test_flat_likelihood_gives_uniform_prior(self):
        post = posterior(np.zeros(GRID.size), GRID)
        np.testing.assert_allclose(post.density, 2.0 / math.pi, rtol=1e-12)
        assert post.evidence_log == pytest.approx(math.log(math.pi / 2), rel=1e-12)

    def test_gaussian_loglik_matches_truncated_normal(self):
        mu, sigma = 0.4, 0.01
        ll = -((GRID.points - mu) ** 2) / (2.0 * sigma**2)
        post = posterior(ll, GRID)
        est = bayes_estimate(post)
        mean_ref, var_ref = helpers.truncated_normal_moments(mu, sigma, 0.0, math.pi / 2)
        assert est.mean == pytest.approx(mean_ref, abs=1e-6)
        assert est.variance == pytest.approx(var_ref, abs=1e-6)

    def test_normalization_invariant(self):
        rng = np.random.default_rng(5)
        ll = rng.normal(size=GRID.size)
        post = posterior(ll, GRID)
        assert np.trapezoid(post.density, GRID.points) == pytest.approx(1.0, abs=1e-8)

    def test_pnr_sharper_than_onoff(self):
        cfg = SimConfig(amps=amps(1.12, 0.79), phi_star=0.25, M=4000, seed=21)
        record = sample_counts(cfg)
        post_pnr = posterior(log_likelihood_pnr(record, cfg.amps, 0.0, GRID), GRID)
        post_off = posterior(
            log_likelihood_onoff(record, cfg.amps, 0.0, GRID), GRID
        )
        peak = GRID.points[np.argmax(post_pnr.density)]
        assert abs(peak - 0.25) < 0.08
        assert bayes_estimate(post_pnr).variance < bayes_estimate(post_off).variance

    def test_degenerate_likelihood_raises(self):
        with pytest.raises(DegenerateEvidenceError):
            posterior(np.full(GRID.size, -np.inf), GRID)


class TestBayesEstimate:
    def test_uniform_moments(self):
        est = bayes_estimate(uniform_posterior(GRID))
        assert est.mean == pytest.approx(math.pi / 4, abs=1e-9)
        assert est.variance == pytest.approx(math.pi**2 / 48, rel=1e-6)

    def test_skewness_of_symmetric_posterior_is_zero(self):
        ll = -((GRID.points - math.pi / 4) ** 2) / (2.0 * 0.02**2)
        est = bayes_estimate(posterior(ll, GRID))
        assert est.skewness == pytest.approx(0.0, abs=1e-6)

    def test_skewness_is_none_where_the_variance_cubed_underflows(self):
        # variance ~1e-305 > 0, but variance**1.5 rounds to 0
        grid = PhaseGrid(size=5)
        est = bayes_estimate(posterior(np.array([0.0, -700.0] + [-np.inf] * 3), grid))
        assert 0.0 < est.variance < 1e-300 and est.variance**1.5 == 0.0
        assert est.skewness is None

    def test_coverage_over_replications(self):
        # |mean - phi*| <= 3 sd(posterior) in >= 99% of 100 seeded runs
        hits = 0
        for rep in range(100):
            cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=10_000, seed=100)
            record = sample_counts(cfg, replication=rep)
            post = posterior(log_likelihood_pnr(record, cfg.amps, 0.0, GRID), GRID)
            est = bayes_estimate(post)
            if abs(est.mean - 0.3) <= 3.0 * math.sqrt(est.variance):
                hits += 1
        assert hits >= 99

    def test_estimates_stay_in_identifiable_domain(self):
        for seed in range(5):
            cfg = SimConfig(amps=amps(1, 1), phi_star=0.05, M=200, seed=seed)
            record = sample_counts(cfg)
            est = bayes_estimate(posterior(log_likelihood_pnr(record, cfg.amps, 0.0, GRID), GRID))
            assert 0.0 <= est.mean <= math.pi / 2


def trapezoid_moments(post):
    """Mean, variance and skewness of a posterior by three np.trapezoid calls."""
    pts, dens = post.grid.points, post.density
    mean = np.trapezoid(dens * pts, pts)
    centered = pts - mean
    var = np.trapezoid(dens * centered * centered, pts)
    return mean, var, np.trapezoid(dens * centered**3, pts) / var**1.5


class TestQuadrature:
    @pytest.mark.parametrize(
        "grid", [GRID, PhaseGrid(size=2), PhaseGrid(lo=0.1, hi=1.3, size=257)],
        ids=["default", "two-point", "shifted"],
    )
    def test_weights_match_trapezoid(self, grid):
        pts = grid.points
        rng = np.random.default_rng(grid.size)
        for f in (np.ones(grid.size), pts, np.exp(-pts), rng.random(grid.size)):
            assert grid.weights @ f == pytest.approx(
                np.trapezoid(f, pts), rel=1e-15, abs=0.0
            )

    def test_weights_are_cached_and_read_only(self):
        # each grid computes its points and weights once; equal grids are equal
        g = PhaseGrid()
        assert g.weights is g.weights and g.points is g.points
        assert not (g.weights.flags.writeable or g.points.flags.writeable)
        assert g == GRID and hash(g) == hash(GRID)
        np.testing.assert_array_equal(g.weights, GRID.weights)

    def test_flat_posterior_moments_match_trapezoid(self):
        est = bayes_estimate(uniform_posterior(GRID))
        mean, var, skew = trapezoid_moments(uniform_posterior(GRID))
        assert est.mean == pytest.approx(mean, rel=1e-13, abs=0.0)
        assert est.variance == pytest.approx(var, rel=1e-13, abs=0.0)
        assert est.skewness == pytest.approx(skew, abs=1e-13)

    def test_record_posterior_moments_match_trapezoid(self):
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=4000, seed=31)
        post = posterior(log_likelihood_pnr(sample_counts(cfg), cfg.amps, 0.0, GRID), GRID)
        est = bayes_estimate(post)
        mean, var, _ = trapezoid_moments(post)
        assert est.mean == pytest.approx(mean, rel=1e-13, abs=0.0)
        assert est.variance == pytest.approx(var, rel=1e-13, abs=0.0)
        # the skewness (0.018 here) moves by about 3/sd = 350 per radian of
        # its centre, so the one ulp by which the two means can differ on
        # some BLAS kernels would move it by 1e-12: the reference's third
        # moment is taken about est.mean, which the first check pins
        pts = post.grid.points
        third = np.trapezoid(post.density * (pts - est.mean) ** 3, pts)
        assert est.skewness == pytest.approx(third / var**1.5, rel=1e-13, abs=0.0)

    def test_unnormalized_density_raises(self):
        flat = uniform_posterior(GRID)
        with pytest.raises(ValueError, match="integrates to"):
            PhasePosterior(GRID, flat.log_density, 2.0 * flat.density, flat.evidence_log)


class TestSequentialUpdate:
    def test_phase_independent_event_leaves_density_unchanged(self):
        # a = 0 makes both component means equal to b^2 at every phase
        flat_amps = amps(0.0, 1.0)
        post = uniform_posterior(GRID)
        updated = sequential_update(post, 1, flat_amps, 0.0, detector_kind="pnr")
        np.testing.assert_allclose(updated.density, post.density, atol=1e-14)

    def test_single_off_event_equals_batch(self):
        post = sequential_update(uniform_posterior(GRID), 0, amps(1, 1), 0.0, detector_kind="onoff")
        batch = posterior(
            log_likelihood_onoff(CountRecord(counts=np.array([0])), amps(1, 1), 0.0, GRID), GRID
        )
        np.testing.assert_allclose(post.density, batch.density, atol=1e-12)
        assert post.evidence_log == pytest.approx(batch.evidence_log, rel=1e-10)

    @pytest.mark.parametrize("kind", ["pnr", "onoff"])
    def test_streaming_replay_equals_batch(self, kind):
        cfg = SimConfig(amps=amps(1.12, 0.79), phi_star=0.25, M=4000, seed=42)
        record = sample_counts(cfg)
        post = uniform_posterior(GRID)
        for n in record.counts:
            post = sequential_update(post, int(n), cfg.amps, 0.0, detector_kind=kind)
        if kind == "pnr":
            ll = log_likelihood_pnr(record, cfg.amps, 0.0, GRID)
        else:
            ll = log_likelihood_onoff(record, cfg.amps, 0.0, GRID)
        batch = posterior(ll, GRID)
        np.testing.assert_allclose(post.density, batch.density, atol=1e-10)
        assert post.evidence_log == pytest.approx(batch.evidence_log, rel=1e-9)

    def test_impossible_event_raises(self):
        with pytest.raises(DegenerateEvidenceError):
            # vacuum input never yields a photon
            sequential_update(uniform_posterior(GRID), 3, amps(0.0, 0.0), 0.0, detector_kind="pnr")

    def test_huge_event_folds_without_a_huge_table(self):
        # p_n underflows for every phase, but ln p_n is finite and largest at
        # phi = 0, where the mean nu+ = (a + b)^2 peaks; only the column of n
        # is ever built
        post = sequential_update(uniform_posterior(GRID), 10**8, amps(SQRT2, SQRT2), 0.0)
        assert np.isfinite(post.log_density).all()
        assert np.argmax(post.log_density) == 0 and post.density[0] > 0.0

    @pytest.mark.parametrize(
        "a, b, kind, size, shots, first",
        [
            (SQRT2, SQRT2, "pnr", 2001, 2000, ()),
            (SQRT2, SQRT2, "onoff", 2001, 2000, ()),
            (1.12, 0.79, "pnr", 201, 2000, ()),
            (20.0, 20.0, "pnr", 2001, 3000, ()),  # about 64 cells stay nonzero
            (14.0, 14.0, "pnr", 20001, 300, ()),
            (14.0, 14.0, "pnr", 2001, 300, (1500,)),  # p_1500 underflows towards pi/2
            (5.0, 5.0, "onoff", 2001, 2000, ()),
        ],
        ids=["sqrt2-pnr", "sqrt2-onoff", "golden-201", "bright-20", "bright-14-fine",
             "bright-14-far-count", "5-onoff"],
    )
    def test_update_is_the_full_grid_arithmetic_bit_for_bit(self, a, b, kind, size, shots, first):
        # the update spelled over the whole grid: exp of every cell, the
        # trapezoid normalizer, then the normalized log density and density
        grid = PhaseGrid(size=size)
        cfg = SimConfig(amps=amps(a, b), phi_star=0.3, M=shots, seed=5)
        events = [*first, *map(int, sample_counts(cfg).counts)]
        bin_of = estimation._kind(kind)
        weights = grid.weights
        post = uniform_posterior(grid)
        log_density, density, evidence_log = post.log_density, post.density, post.evidence_log
        for i, n in enumerate(events):
            post = sequential_update(post, n, cfg.amps, 0.0, detector_kind=kind)
            lu = log_density + _log_columns(cfg.amps, 0.0, grid, kind, [bin_of(n)])[0]
            peak = lu.max()
            dens = np.exp(lu - peak)
            z = float(weights @ dens)
            log_norm = peak + math.log(z)
            log_density, density, evidence_log = lu - log_norm, dens / z, evidence_log + log_norm
            assert np.array_equal(post.log_density, log_density), i
            assert np.array_equal(post.density, density), i
            assert post.evidence_log == evidence_log, i
            if first and i == 0:  # finite in log space, where p_n is below 1e-300
                assert np.isfinite(post.log_density).all()
        assert not (post.log_density.flags.writeable or post.density.flags.writeable)

    def test_posterior_copies_the_callers_loglik(self):
        ll = -((GRID.points - 0.3) ** 2) / 2e-4
        before = ll.copy()
        post = posterior(ll, GRID)
        assert np.array_equal(ll, before) and ll.flags.writeable
        assert not np.shares_memory(post.log_density, ll)
        assert not np.shares_memory(post.density, ll)
        assert not (post.log_density.flags.writeable or post.density.flags.writeable)

    @pytest.mark.parametrize("kind", ["pnr", "onoff"])
    @pytest.mark.parametrize("event", [2**63, 2**70])
    def test_event_no_record_can_hold_is_rejected(self, event, kind):
        # the bound of CountRecord; not DegenerateEvidenceError, a ValueError too
        with pytest.raises(ValueError, match=r"at most 2\*\*63 - 1") as info:
            sequential_update(uniform_posterior(GRID), event, amps(SQRT2, SQRT2), 0.0, kind)
        assert not isinstance(info.value, DegenerateEvidenceError)


class TestFisher:
    def test_vanishes_at_domain_endpoints(self):
        for a, b in [(0.5, 0.5), (1, 1), (1.12, 0.79), (SQRT2, SQRT2)]:
            for phi in (0.0, math.pi / 2):
                assert fisher_pnr(amps(a, b), phi) < 1e-9
                assert fisher_onoff(amps(a, b), phi) < 1e-9

    @pytest.mark.parametrize(
        "a, b, gamma",
        [(SQRT2, SQRT2, 0.0), (SQRT2, SQRT2, 0.5), (14.0, 14.0, 0.0), (11.82012472000337, 10.747350414721087, 0.5)],
    )
    def test_exactly_zero_at_the_stationary_phases(self, a, b, gamma):
        # the last case puts the on/off dp_0 at pi/2 within 5% of its rounding
        # floor, N eps 2ab p_0: a noise weight folded into the exponent before
        # the shift rounds it past the floor
        for fisher in (fisher_pnr, fisher_onoff):
            assert np.all(fisher(amps(a, b), np.array([0.0, math.pi / 2]), gamma) == 0.0)

    def test_single_interior_maximum_experimental_curve(self):
        phis = np.linspace(0.0, math.pi / 2, 200)
        curve = np.array([fisher_pnr(amps(1.12, 0.79), p) for p in phis])
        peak = int(np.argmax(curve))
        assert 0 < peak < len(phis) - 1
        # strictly rising then falling around the single interior maximum
        assert np.all(np.diff(curve[: peak + 1]) > 0)
        assert np.all(np.diff(curve[peak:]) < 0)

    def test_onoff_closed_form(self):
        a = amps(1, 1)
        phi = 0.7
        p0 = photon_pmf(a, phi).probs[0]
        dp0 = helpers.fd_dphi(lambda p: photon_pmf(a, p).probs, phi)[0]
        expected = dp0**2 / (p0 * (1.0 - p0))
        assert fisher_onoff(a, phi) == pytest.approx(expected, rel=1e-6)

    def test_onoff_never_exceeds_pnr(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            a, b = rng.uniform(0.3, 2.0, size=2)
            phi = rng.uniform(0.0, math.pi / 2)
            gamma = rng.choice([0.0, math.pi / 4])
            assert fisher_onoff(amps(a, b), phi, gamma) <= fisher_pnr(amps(a, b), phi, gamma) + 1e-12

    @pytest.mark.parametrize("gamma", [0.0, math.pi / 4])
    @pytest.mark.parametrize("pair", [(0.5, 0.5), (1.0, 1.0), (1.12, 0.79), (SQRT2, SQRT2)])
    def test_data_processing_ordering_on_grid(self, pair, gamma):
        a = amps(*pair)
        phis = np.linspace(0.0, math.pi / 2, 500)
        gap = fisher_onoff(a, phis, gamma) - fisher_pnr(a, phis, gamma)
        assert np.all(gap <= 1e-12)

    @pytest.mark.parametrize("pair", [(0.5, 0.5), (1.12, 0.79), (SQRT2, SQRT2), (3.0, 3.0)])
    def test_array_of_phases_matches_scalar_calls(self, pair):
        a = amps(*pair)
        phis = np.linspace(0.0, math.pi / 2, 200)
        for fisher in (fisher_pnr, fisher_onoff):
            scalar = np.array([fisher(a, p) for p in phis])
            assert np.array_equal(fisher(a, phis), scalar)  # bit for bit at gamma 0
        scalar = np.array([fisher_pnr(a, p, math.pi / 4) for p in phis])
        together = fisher_pnr(a, phis, math.pi / 4)
        assert together.shape == phis.shape
        assert np.max(np.abs(together - scalar)) <= 1e-15 * np.max(scalar)

    @pytest.mark.parametrize("fisher", [fisher_pnr, fisher_onoff])
    @pytest.mark.parametrize("phi", [math.nan, math.inf, np.array([0.3, math.nan, 0.5])])
    def test_phase_that_is_not_finite_raises(self, fisher, phi):
        # not 0.0, which would read as "no information"
        with pytest.raises(ValueError, match="phase phi"):
            fisher(amps(1, 1), phi)

    def test_scalar_phase_gives_float(self):
        assert type(fisher_pnr(amps(1, 1), 0.3)) is float
        assert type(fisher_onoff(amps(1, 1), np.float64(0.3), 0.5)) is float

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("pair", [(1.12, 0.79), (20.0, 20.0)])
    def test_onoff_is_the_coarse_grained_kernel(self, pair, gamma):
        # dp_0^2 / (p_0 (1 - p_0)) is the two-bin sum over {0}, {n >= 1}
        a = amps(*pair)
        phis = np.linspace(0.05, 1.5, 120)
        p0 = pmf_table(a, phis, gamma, n_max=0)[:, 0]
        dp0 = dphi_table(a, phis, gamma, n_max=0)[:, 0]
        support = (p0 > 0.0) & (p0 < 1.0)
        closed = dp0[support] ** 2 / (p0[support] * (1.0 - p0[support]))
        got = fisher_onoff(a, phis, gamma)[support]
        assert np.all(np.abs(got - closed) <= 1e-15 * closed)
        if pair == (20.0, 20.0) and gamma == 0.0:
            # phases where a support cut at p_0 > 1e-30 would lose all of F
            assert np.count_nonzero((closed > 0.0) & (p0[support] < 1e-30)) >= 10

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("pair", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
    def test_no_information_without_interference(self, pair, gamma):
        a = amps(*pair)
        phis = np.linspace(0.0, math.pi / 2, 50)
        for fisher in (fisher_pnr, fisher_onoff):
            assert fisher(a, 0.7, gamma) == 0.0
            assert crlb_variance(fisher(a, 0.7, gamma), 100) is None
            assert np.all(fisher(a, phis, gamma) == 0.0)

    def test_many_phases_in_bounded_memory(self):
        # one unblocked 4000-phase table at a = b = 20 is 67 MB before temporaries
        phis = np.linspace(0.0, math.pi / 2, 4000)
        tracemalloc.start()
        try:
            info = fisher_pnr(amps(20.0, 20.0), phis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.shape == (4000,) and np.all(np.isfinite(info))
        assert peak < 128 * 2**20

    def test_matches_likelihood_curvature(self):
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=200_000, seed=8)
        record = sample_counts(cfg)
        h = 1e-3
        grid3 = PhaseGrid(lo=0.3 - h, hi=0.3 + h, size=3)
        ll = log_likelihood_pnr(record, cfg.amps, 0.0, grid3)
        observed_info = -(ll[2] - 2.0 * ll[1] + ll[0]) / h**2 / cfg.M
        assert observed_info == pytest.approx(fisher_pnr(cfg.amps, 0.3), rel=0.05)


class TestCrlb:
    def test_unit_case(self):
        assert crlb_variance(1.0, 1) == 1.0

    def test_scaling(self):
        assert crlb_variance(2.0, 10_000) == pytest.approx(5e-5, rel=1e-12)

    def test_zero_information_signals_unbounded(self):
        assert crlb_variance(0.0, 100) is None

    @pytest.mark.parametrize(
        "fisher, sample_size, match",
        [(1.0, 0, "sample_size"), (-1.0, 10, "Fisher"), (1.0, 2.5, "sample_size"),
         (math.nan, 10, "Fisher")],
    )
    def test_invalid_inputs(self, fisher, sample_size, match):
        with pytest.raises(ValueError, match=match):
            crlb_variance(fisher, sample_size)


class TestFanoInversion:
    def test_exact_moment_identity(self):
        for phi_star in (0.2, 0.7, 1.2):
            fano = fano_factor(amps(SQRT2, SQRT2), phi_star)
            phi_hat, clamped = invert_fano(fano, amps(SQRT2, SQRT2))
            assert not clamped
            assert phi_hat == pytest.approx(phi_star, abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0, 4.0])
    def test_round_trip_under_phase_noise(self, gamma):
        # gamma = 4 has k = sin(gamma)/gamma < 0: F then falls as cos^2(phi) grows
        a = amps(SQRT2, SQRT2)
        for phi in (0.1, 0.3, 0.7, 1.2):
            phi_hat, clamped = invert_fano(fano_factor(a, phi, gamma), a, gamma)
            assert not clamped
            assert phi_hat == pytest.approx(phi, abs=1e-9)

    @pytest.mark.parametrize("gamma", [math.pi, 2 * math.pi])
    def test_no_phase_information_at_zero_noise_weight(self, gamma):
        # sin(gamma)/gamma is +-3.9e-17 here, below the rounding of F
        record = CountRecord(counts=np.array([0, 1, 2, 3, 5]))
        with pytest.raises(ValueError, match="gamma"):
            invert_fano(2.0, amps(SQRT2, SQRT2), gamma)
        with pytest.raises(ValueError, match="gamma"):
            fano_inversion_estimate(record, amps(SQRT2, SQRT2), gamma)

    def test_poisson_boundary_clamps_about_half_the_time(self):
        # phi* = pi/2 statistics are exactly Poissonian: Fano hat straddles 1
        clamped_runs = 0
        reps = 40
        for rep in range(reps):
            cfg = SimConfig(amps=amps(1, 1), phi_star=math.pi / 2, M=2000, seed=77)
            record = sample_counts(cfg, replication=rep)
            est = fano_inversion_estimate(record, cfg.amps)
            assert est.mean > 1.2  # near pi/2
            clamped_runs += est.clamped
        assert 0.25 * reps <= clamped_runs <= 0.75 * reps

    def test_larger_spread_than_bayes(self):
        errs_fano, errs_bayes = [], []
        for rep in range(10):
            cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.3, M=10_000, seed=13)
            record = sample_counts(cfg, replication=rep)
            est_f = fano_inversion_estimate(record, cfg.amps)
            post = posterior(log_likelihood_pnr(record, cfg.amps, 0.0, GRID), GRID)
            est_b = bayes_estimate(post)
            errs_fano.append(abs(est_f.mean - 0.3))
            errs_bayes.append(abs(est_b.mean - 0.3))
            assert est_f.variance > est_b.variance
        assert np.mean(errs_fano) > np.mean(errs_bayes)

    def test_jackknife_tracks_sampling_spread(self):
        # jackknife variance should approximate the ensemble variance
        cfg = SimConfig(amps=amps(SQRT2, SQRT2), phi_star=0.4, M=5000, seed=19)
        estimates, jack_vars = [], []
        for rep in range(60):
            record = sample_counts(cfg, replication=rep)
            est = fano_inversion_estimate(record, cfg.amps)
            estimates.append(est.mean)
            jack_vars.append(est.variance)
        ratio = np.mean(jack_vars) / np.var(estimates, ddof=1)
        assert 0.5 < ratio < 2.0

    def test_zero_mean_record_raises(self):
        with pytest.raises(UndefinedFanoError):
            fano_inversion_estimate(CountRecord(counts=np.zeros(10, dtype=int)), amps(1, 1))

    def test_jackknife_leaving_out_the_only_nonzero_shot(self):
        # that leave-one-out mean is exactly 0, so its ratio falls back to 1
        counts = np.array([0] * 9 + [5])
        est = fano_inversion_estimate(CountRecord(counts=counts), amps(1, 1))
        phi, var = helpers.fano_jackknife_brute(counts, 1.0, 1.0)
        assert est.mean == pytest.approx(phi, rel=1e-12)
        assert est.variance == pytest.approx(var, rel=1e-10)

    def test_jackknife_sum_of_counts_near_2_to_62_is_exact(self):
        # the five counts sum to more than 2**63 - 1; every partial sum and
        # deviation is exact in doubles, so the brute force is exact too
        counts = 2**62 + np.arange(5, dtype=np.int64) * 2**31
        est = fano_inversion_estimate(CountRecord(counts=counts), amps(SQRT2, SQRT2))
        phi, var = helpers.fano_jackknife_brute(counts, SQRT2, SQRT2)
        assert not est.clamped
        assert est.mean == pytest.approx(phi, rel=1e-12)
        assert est.variance == pytest.approx(var, rel=1e-10)

    def test_empirical_fano_of_constant_record(self):
        assert empirical_fano(CountRecord(counts=np.full(50, 3))) == 0.0

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1e-300, 1.0), (5e-324, SQRT2), (1e-160, 1e-160)])
    def test_underflowing_amplitude_product_raises(self, a, b):
        # a, b > 0, but 4 a^2 b^2 rounds to 0: the inversion would divide by it
        record = CountRecord(counts=np.array([0, 1, 2, 3]))
        with pytest.raises(ValueError, match="4 a\\^2 b\\^2 > 0"):
            invert_fano(1.5, amps(a, b))
        with pytest.raises(ValueError, match="4 a\\^2 b\\^2 > 0"):
            fano_inversion_estimate(record, amps(a, b))

    def test_subnormal_amplitude_product_clamps(self):
        # 4 a^2 b^2 is subnormal but positive: the phase term is invisible in
        # the counts, so every ratio clamps, and nothing is NaN
        est = fano_inversion_estimate(CountRecord(counts=np.array([0, 1, 2, 3, 0])), amps(1e-160, 1.0))
        assert est.clamped and math.isfinite(est.mean) and math.isfinite(est.variance)


class TestTypes:
    @pytest.mark.parametrize(
        "fields, match",
        [
            (dict(size=1), "grid size"),
            (dict(lo=1.0, hi=0.5), "lo < hi"),
            (dict(size=2.7), "grid size"),
            (dict(size="5"), "grid size"),
            (dict(size=np.float64(3.0)), "grid size"),
            (dict(lo=True), "grid lo"),
            (dict(hi="1.0"), "grid hi"),
        ],
    )
    def test_grid_validation(self, fields, match):
        with pytest.raises(ValueError, match=match):
            PhaseGrid(**fields)

    def test_grid_points_are_inclusive_and_uniform(self):
        g = PhaseGrid(size=5)
        np.testing.assert_allclose(g.points, np.linspace(0, math.pi / 2, 5))

    def test_estimate_validation(self):
        for variance in (-1.0, math.nan):
            with pytest.raises(ValueError, match="variance"):
                PhaseEstimate(mean=0.3, variance=variance)
