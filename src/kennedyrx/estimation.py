"""Grid-based Bayesian inference of the signal/LO relative phase.

The photon statistics are invariant under phi -> -phi and phi -> pi - phi,
so the phase is identifiable only on [0, pi/2]; that interval carries the
uniform prior.  Posteriors live on a uniform grid, and every integral over it
(normalizer, normalization check, mean, variance, skewness) is a dot product
with the grid's cached trapezoid weights, so a streaming shot pays no
quadrature set-up.

One kernel turns photon-number histograms, the sufficient statistic, into
log-likelihoods.  Records come as one representation: distinct counts in
ascending order and a (records x counts) occupancy matrix, which is a dense
row over 0..cap per record in the sweep and the one row of a record's sparse
histogram otherwise, so a count up to 2**63 - 1 costs no dense memory.  The
kernel bins the counts, then multiplies the (records x bins) occupations
w_k by the (bins x grid) table of ln P_k, one row sum_k w_k ln P_k per
record, where an empty bin adds 0 even at grid points where its ln P_k is
-inf.  The table goes in blocks of bins, and :func:`bayes_estimates` passes
many records in blocks of rows, each of bounded size, and takes the
posterior mean and variance of a whole block in one in-place pass over its
window, the grid points where some row's density is not exactly 0.
Photon-number-resolved ("pnr") bins are the distinct counts; on/off bins
are their coarse-graining {0}, {n >= 1}, so both kinds read the one record
type, :class:`CountRecord` (an on/off detector's record is one of 0s and
1s).  One lookup gives a kind's ln P column and its count-to-bin map, for
batch and streaming alike.  Batch and streaming read ln p_n
from one bounded per-count cache, so memory follows neither the size of a
count nor the number of distinct counts.  One more kernel gives the Fisher
information of both kinds, sum_k (dP_k/dphi)^2 / P_k over the bins with
P_k > 0 (pnr: n = 0..cutoff).

Estimators share the detection record used for bit discrimination:

* Bayes posterior mean and variance, for photon-number-resolved ("pnr") and
  on/off detection, in batch form or via shot-by-shot streaming updates;
* Fisher informations of both detection models, scalar or one per phase of
  an array, and the Cramer-Rao variance reference 1/(M*F);
* a moment-based alternative that inverts the phase dependence of the Fano
  factor, with a leave-one-out jackknife uncertainty: one kernel over the
  same occupancy rows serves one record and many, with each mean from the
  exact integer sum of the counts, and it divides by one guarded scale
  4 a^2 b^2.

Posterior values are immutable in spirit: updates return new objects, so
distinct posteriors may be processed in parallel; a single streaming chain
must be advanced by one writer at a time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Literal

import numpy as np

from . import photonstats
from .photonstats import DetectorPlaneAmplitudes

__all__ = [
    "PhaseGrid",
    "PhasePosterior",
    "PhaseEstimate",
    "CountRecord",
    "DetectorKind",
    "DegenerateEvidenceError",
    "UndefinedFanoError",
    "log_likelihood_pnr",
    "log_likelihood_onoff",
    "posterior",
    "uniform_posterior",
    "bayes_estimate",
    "bayes_estimates",
    "sequential_update",
    "fisher_pnr",
    "fisher_onoff",
    "crlb_variance",
    "empirical_fano",
    "invert_fano",
    "fano_inversion_estimate",
    "fano_inversion_estimates",
    "fold_phase",
]

DetectorKind = Literal["onoff", "pnr"]

# Cells per block of Fisher table rows (phases), of likelihood columns
# (bins), of log-likelihood rows (records) or of the sweep's histogram rows:
# photonstats' noise-average budget.
_BLOCK_CELLS = 2_000_000


class DegenerateEvidenceError(ValueError):
    """Raised when a likelihood is zero everywhere on the phase grid."""


class UndefinedFanoError(ValueError):
    """Raised when a record's sample mean vanishes and no Fano factor exists."""


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform phase grid over the identifiable domain (default [0, pi/2], 2001 points)."""

    lo: float = 0.0
    hi: float = math.pi / 2
    size: int = 2001

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"grid bounds must satisfy lo < hi, got [{self.lo!r}, {self.hi!r}]")
        if int(self.size) < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.size!r}")
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "size", int(self.size))

    @property
    def points(self) -> np.ndarray:
        return _grid_points(self)


@lru_cache(maxsize=16)
def _grid_points(grid: PhaseGrid) -> np.ndarray:
    pts = np.linspace(grid.lo, grid.hi, grid.size)
    pts.setflags(write=False)
    return pts


@lru_cache(maxsize=16)
def _trapezoid_weights(grid: PhaseGrid) -> np.ndarray:
    """Weights w with w @ f equal to the trapezoid rule of f over the grid points."""
    half = 0.5 * np.diff(_grid_points(grid))
    w = np.zeros(grid.size)
    w[:-1] += half
    w[1:] += half
    w.setflags(write=False)
    return w


def fold_phase(phi: float) -> float:
    """Identifiable representative in [0, pi/2] of a phase, by the invariance of
    the photon statistics under phi -> -phi and phi -> pi - phi."""
    return abs(math.remainder(phi, math.pi))


@dataclass(frozen=True)
class CountRecord:
    """Detection record {n_k}: one nonnegative photon count per shot."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 1:
            raise ValueError("counts must be one-dimensional")
        if counts.size and not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("counts must be integers")
        if counts.size and (counts.min() < 0 or counts.max() > np.iinfo(np.int64).max):
            raise ValueError("counts must be nonnegative and at most 2**63 - 1")
        counts = counts.astype(np.int64, copy=True)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def sample_size(self) -> int:
        return int(self.counts.size)

    @cached_property
    def histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """The sufficient statistic in sparse form, from one ``np.unique``: the
        distinct counts n in ascending order and the occurrences m_n of each."""
        values, occurrences = np.unique(self.counts, return_counts=True)
        values.setflags(write=False)
        occurrences.setflags(write=False)
        return values, occurrences


@dataclass(frozen=True)
class PhasePosterior:
    """Discretized posterior density over the phase grid.

    ``log_density`` is the normalized log density and ``density`` its
    exponential, which integrates to one by the trapezoid rule.  Folding in an
    event adds its log-likelihood to ``log_density`` and renormalizes, and
    the log normalizer of that sum is the event's evidence increment.
    ``evidence_log`` accumulates the log of the integrated likelihood of all
    data folded in so far, i.e. log(1/N) of the Bayes normalization before
    prior weighting.
    """

    grid: PhaseGrid
    log_density: np.ndarray
    density: np.ndarray
    evidence_log: float

    def __post_init__(self) -> None:
        for name in ("log_density", "density"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.grid.size,):
                raise ValueError(f"{name} must have one entry per grid point")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        total = float(_trapezoid_weights(self.grid) @ self.density)
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-8):
            raise ValueError(f"posterior density integrates to {total!r}, not 1")


@dataclass(frozen=True)
class PhaseEstimate:
    """Point estimate of the phase with its uncertainty and CRLB reference.

    ``crlb`` is the Cramer-Rao variance floor 1/(M*F) when available (None in
    degenerate regimes); ``clamped`` marks Fano inversions whose moment ratio
    fell outside the invertible range; ``skewness`` is recorded for posterior
    shape diagnostics.
    """

    mean: float
    variance: float
    crlb: float | None = None
    sample_size: int = 0
    clamped: bool = False
    skewness: float | None = None

    def __post_init__(self) -> None:
        if self.variance < 0:
            raise ValueError(f"variance must be nonnegative, got {self.variance!r}")
        if self.crlb is not None and self.crlb <= 0:
            raise ValueError(f"crlb must be positive when present, got {self.crlb!r}")


@lru_cache(maxsize=256)
def _log_pmf(amps: DetectorPlaneAmplitudes, gamma: float, grid: PhaseGrid, n: int) -> np.ndarray:
    """ln p_n over the grid for one photon number n (-inf where p_n is zero).

    A record needs one column per distinct count; the 256 kept columns take
    4 MB on the default 2001-point grid."""
    with np.errstate(divide="ignore"):
        col = np.log(photonstats.pmf_columns(amps, grid.points, [n], gamma)[:, 0])
    col.setflags(write=False)
    return col


@lru_cache(maxsize=64)
def _log_onoff(amps: DetectorPlaneAmplitudes, gamma: float, grid: PhaseGrid, on: int) -> np.ndarray:
    """ln P over the grid for the on/off bin {0} (on = 0) or {n >= 1} (on = 1).

    The noise quadrature can round p_0 of a near-vacuum beam a hair above 1;
    there P_on is taken as 0 (ln P_on = -inf), not NaN."""
    log_off = _log_pmf(amps, gamma, grid, 0)
    if not on:
        return log_off
    with np.errstate(divide="ignore"):
        col = np.log1p(-np.exp(np.minimum(log_off, 0.0)))
    col.setflags(write=False)
    return col


# detector kind -> (ln P column of a bin, the bin of a photon count n)
_KINDS = {
    "pnr": (_log_pmf, lambda n: n),
    "onoff": (_log_onoff, lambda n: np.minimum(n, 1)),
}


def _kind(detector_kind: DetectorKind):
    """The ln P column and the count-to-bin map of a detector kind: pnr bins
    are the photon numbers, on/off bins their coarse-graining {0}, {n >= 1}."""
    try:
        return _KINDS[detector_kind]
    except (KeyError, TypeError):
        raise ValueError(f"detector_kind must be 'onoff' or 'pnr', got {detector_kind!r}") from None


def _bins(values, occupancy, detector_kind: DetectorKind):
    """The ln P column of a detector kind's bins, the bins occupied by any
    row of ``occupancy``, and one row of bin occupations per row.

    ``values`` are distinct counts in ascending order and ``occupancy`` holds
    one row of their occurrences per record: a dense row over 0..cap, or the
    one row of a :attr:`CountRecord.histogram`.  Each count adds its
    occurrences to its bin; a bin map is monotone, so a bin is a run of
    consecutive occupied values.
    """
    column, bin_of = _kind(detector_kind)
    used = occupancy.any(axis=0)
    ns, first = np.unique(bin_of(np.asarray(values)[used]), return_index=True)
    return column, ns, np.add.reduceat(occupancy[:, used], first, axis=1)


def _loglik(column, bins, weights, amps, gamma: float, grid: PhaseGrid) -> np.ndarray:
    """The likelihood kernel: row r of the result is sum_k w_rk ln P_k.

    ``weights`` holds one row of occupations w_rk of ``bins`` per record,
    and ``column(amps, gamma, grid, k)`` is ln P_k over the grid.  Each block
    of at most ``_BLOCK_CELLS`` table cells is one matrix product, so memory
    does not follow the number of bins.  An empty bin adds 0 even where its
    ln P_k is -inf, so no 0 * -inf arises, and a grid point where an
    occupied bin is impossible gets -inf.
    """
    weights = np.asarray(weights, dtype=float)
    ll = np.zeros((len(weights), grid.size))
    step = max(1, _BLOCK_CELLS // grid.size)
    for start in range(0, len(bins), step):
        w = weights[:, start : start + step]
        cols = np.array([column(amps, gamma, grid, int(k)) for k in bins[start : start + step]])
        impossible = cols == -np.inf
        dead = impossible.any()
        if dead:
            cols[impossible] = 0.0
        if start:
            ll += w @ cols
        else:
            # in place: a second (records x grid) array would make the
            # allocator fault in fresh pages on every call
            np.matmul(w, cols, out=ll)
        if dead:
            ll[(w > 0) @ impossible] = -np.inf
    return ll


def log_likelihood_pnr(
    record: CountRecord,
    amps: DetectorPlaneAmplitudes,
    gamma: float,
    grid: PhaseGrid,
) -> np.ndarray:
    """Log-likelihood sum_n m_n ln p_n(a, b, phi, gamma) at every grid point.

    Works from the record's histogram: the occurrence counts m_n of its
    distinct counts n.  Grid points where an observed n has zero model
    probability get -inf, never an exception.
    """
    values, occurrences = record.histogram
    return _loglik(*_bins(values, occurrences[None], "pnr"), amps, float(gamma), grid)[0]


def log_likelihood_onoff(
    record: CountRecord,
    amps: DetectorPlaneAmplitudes,
    gamma: float,
    grid: PhaseGrid,
) -> np.ndarray:
    """Log-likelihood m_off ln P_off + m_on ln(1 - P_off) with P_off = p_0, where
    m_off counts the shots of the record with n = 0 and m_on the others."""
    values, occurrences = record.histogram
    return _loglik(*_bins(values, occurrences[None], "onoff"), amps, float(gamma), grid)[0]


def posterior(loglik, grid: PhaseGrid) -> PhasePosterior:
    """Posterior from a log-likelihood over the grid under the uniform prior.

    The constant prior cancels out of the density and is absorbed in the
    evidence convention (see :class:`PhasePosterior`).
    """
    ll = np.asarray(loglik, dtype=float)
    if ll.shape != (grid.size,):
        raise ValueError("log-likelihood must have one entry per grid point")
    if np.isnan(ll).any():
        raise ValueError("log-likelihood contains NaN")
    return _normalized(ll, grid, 0.0)


def _normalized(log_unnorm: np.ndarray, grid: PhaseGrid, evidence_log: float) -> PhasePosterior:
    """Posterior of an unnormalized log density, by max-subtracted exponentiation
    and trapezoid normalization; its log normalizer is added to the evidence."""
    peak = log_unnorm.max()
    if not math.isfinite(peak):
        raise DegenerateEvidenceError("likelihood vanishes at every grid point")
    dens = np.exp(log_unnorm - peak)
    # dens is 1 at the peak and in [0, 1] elsewhere, so z is finite and positive
    z = float(_trapezoid_weights(grid) @ dens)
    log_norm = peak + math.log(z)
    return PhasePosterior(
        grid=grid,
        log_density=log_unnorm - log_norm,
        density=dens / z,
        evidence_log=evidence_log + log_norm,
    )


def bayes_estimate(post: PhasePosterior, sample_size: int = 0) -> PhaseEstimate:
    """Posterior mean, central variance and skewness by trapezoid quadrature.

    The moments are taken about the mean, so no raw-moment cancellation
    occurs.  ``crlb`` is left unset: it depends on the detection model and
    on the point where the Fisher information is evaluated, which callers
    attach with ``dataclasses.replace``.
    """
    pts = post.grid.points
    weighted = post.density * _trapezoid_weights(post.grid)
    mean = float(weighted @ pts)
    centered = pts - mean
    squared = centered * centered
    var = float(weighted @ squared)
    scale = var**1.5  # 0 also for variances so small that it underflows
    skew = None
    if scale > 0.0:
        # squared * centered, not centered**3: np.power is the slowest step here
        third = float(weighted @ (squared * centered))
        skew = third / scale
    return PhaseEstimate(
        mean=mean, variance=var, sample_size=sample_size, skewness=skew
    )


def bayes_estimates(
    values,
    occupancy,
    amps: DetectorPlaneAmplitudes,
    gamma: float,
    grid: PhaseGrid,
    detector_kind: DetectorKind,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and central variances of many records, one per row.

    The records come as one occupancy matrix over shared ``values``, the
    distinct counts in ascending order: row r holds the occurrences of each
    value in record r (see :func:`_bins`).  The rows go in blocks of at most
    ``_BLOCK_CELLS`` log-likelihood cells, each one call of the likelihood
    kernel, and each block's moments come from one in-place pass over the
    kernel's output, on the block's window (:func:`_posterior_moments`), so
    memory does not follow the number of records.  The moments are those of
    :func:`bayes_estimate` up to the rounding of their sums, and a row whose
    posterior :func:`posterior` would reject raises what it raises.
    """
    occupancy = np.asarray(occupancy)
    step = max(1, _BLOCK_CELLS // grid.size)
    means, variances = np.empty(len(occupancy)), np.empty(len(occupancy))
    for start in range(0, len(occupancy), step):
        block = _loglik(*_bins(values, occupancy[start : start + step], detector_kind),
                        amps, float(gamma), grid)
        rows = slice(start, start + len(block))
        means[rows], variances[rows] = _posterior_moments(block, grid)
    return means, variances


# exp(x) is exactly 0 for x below about -745.13
_EXP_UNDERFLOW = 746.0


def _posterior_moments(ll: np.ndarray, grid: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
    """Mean and central variance of the posterior of each row of log-likelihoods.

    The arithmetic of :func:`posterior` and :func:`bayes_estimate` row by row,
    in place on ``ll``: max-subtract, ``exp``, divide by the trapezoid
    normalizer, weight.  A row without a finite peak (one with a NaN, or one
    that is -inf or +inf at its peak) raises what :func:`posterior` raises,
    for the first such row, before any ``exp``; every other row has its peak
    cell at exp(0) = 1 and none above, so its normalizer is finite and at
    least the peak's trapezoid weight.
    The moments run on the block's window alone, the columns from the first
    to the last where some row is within 746 of its peak: outside it ``exp``
    gives exactly 0 in every row, so the window changes no moment beyond the
    rounding of its sums.  The centered squares are the one other
    window-sized array.
    """
    peak = ll.max(axis=1)  # NaN in a row with NaN
    failed = ~np.isfinite(peak)
    if failed.any():
        row = int(np.argmax(failed))
        if np.isnan(peak[row]):
            raise ValueError("log-likelihood contains NaN")
        raise DegenerateEvidenceError("likelihood vanishes at every grid point")
    near = np.flatnonzero((ll >= (peak - _EXP_UNDERFLOW)[:, None]).any(axis=0))
    window = slice(near[0], near[-1] + 1)
    ll, weights, points = ll[:, window], _trapezoid_weights(grid)[window], grid.points[window]
    ll -= peak[:, None]
    np.exp(ll, out=ll)
    ll /= (ll @ weights)[:, None]
    ll *= weights
    mean = ll @ points
    centered = points - mean[:, None]
    centered *= centered
    return mean, np.einsum("ij,ij->i", ll, centered)


def sequential_update(
    post: PhasePosterior,
    event: int,
    amps: DetectorPlaneAmplitudes,
    gamma: float,
    detector_kind: DetectorKind = "pnr",
) -> PhasePosterior:
    """Fold one detection event into a posterior, returning a new posterior.

    Adds the event's log-likelihood column (its on/off bin for on/off
    detection) to the normalized log density and renormalizes; the log
    normalizer is the evidence increment.  Folding a record event by event
    reproduces the batch posterior.  An event outside 0..2**63 - 1, the
    counts a :class:`CountRecord` holds, raises ``ValueError``.
    """
    event = operator.index(event)
    if not 0 <= event <= 2**63 - 1:
        raise ValueError(
            f"photon count must be nonnegative and at most 2**63 - 1, got {event!r}"
        )
    column, bin_of = _kind(detector_kind)
    ll = column(amps, float(gamma), post.grid, bin_of(event))
    return _normalized(post.log_density + ll, post.grid, post.evidence_log)


def uniform_posterior(grid: PhaseGrid) -> PhasePosterior:
    """The prior state: a flat posterior before any data."""
    return posterior(np.zeros(grid.size), grid)


def _fisher(amps: DetectorPlaneAmplitudes, phi, gamma: float, n_max: int | None, bins):
    """The Fisher kernel, sum_k (dP_k/dphi)^2 / P_k over the bins k with P_k > 0;
    ``bins(p, dp)`` maps the rows of p_n and d p_n/d phi over n = 0..n_max to
    rows of P_k and dP_k/dphi.  Phases go in blocks of bounded table size.

    The result is exactly 0 where rounding alone could give it.  d p_n/dphi
    sums, over the N nodes of the noise average (1 without noise), terms
    ab sin(phi - psi) (D_{n-1} - D_n) (``photonstats._dphi_rows``) whose sizes
    add up to at most S_n = 2ab (p_{n-1} + p_n), so it is off by up to
    N eps S_n, and F by up to sum_k (N eps S_k)^2 / P_k over the bins.  The
    true F is 0 at gamma = pi and 2 pi, whose windows span whole periods.
    """
    phis = np.asarray(phi, dtype=float)
    flat = phis.ravel()
    cols = (photonstats.default_cutoff(amps) if n_max is None else n_max) + 1
    step = max(1, _BLOCK_CELLS // cols)
    rounding = photonstats._noise_nodes(amps, gamma) * np.finfo(float).eps * 2.0 * amps.a * amps.b
    info = np.empty(flat.size)
    for start in range(0, flat.size, step):
        block = flat[start : start + step]
        p_n = photonstats.pmf_table(amps, block, gamma, n_max=n_max)
        err = rounding * p_n
        err[:, 1:] += rounding * p_n[:, :-1]  # N eps S_n
        p, dp = bins(p_n, photonstats.dphi_table(amps, block, gamma, n_max=n_max))
        _, err = bins(p_n, err)
        terms = np.divide(dp * dp, p, out=np.zeros_like(p), where=p > 0.0).sum(axis=1)
        floor = np.divide(err * err, p, out=np.zeros_like(p), where=p > 0.0).sum(axis=1)
        info[start : start + step] = np.where(terms > floor, terms, 0.0)
    return float(info[0]) if phis.ndim == 0 else info.reshape(phis.shape)


def fisher_pnr(amps: DetectorPlaneAmplitudes, phi, gamma: float = 0.0) -> float | np.ndarray:
    """Fisher information of the photon-number-resolved model, the kernel
    sum_n (d p_n/d phi)^2 / p_n over the bins n = 0..cutoff with p_n > 0, at a
    phase (a float) or at each phase of an array.  Zero at phi = 0 and pi/2,
    where the statistics are stationary: the no-information regime, not an error.
    """
    return _fisher(amps, phi, gamma, None, lambda p, dp: (p, dp))


def fisher_onoff(amps: DetectorPlaneAmplitudes, phi, gamma: float = 0.0) -> float | np.ndarray:
    """Fisher information of the on/off model: the same kernel over the
    coarse-grained bins {0}, {n >= 1}, P = (p_0, 1 - p_0) with P > 0.  Phases
    as for :func:`fisher_pnr`; 0.0 where a bin is certain or p_0 is stationary."""
    return _fisher(
        amps, phi, gamma, 0, lambda p, dp: (np.hstack([p, 1.0 - p]), np.hstack([dp, -dp]))
    )


def crlb_variance(fisher: float, sample_size: int) -> float | None:
    """Cramer-Rao variance floor 1/(M*F); None when F = 0 (unbounded variance)."""
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size!r}")
    if fisher < 0:
        raise ValueError(f"Fisher information must be nonnegative, got {fisher!r}")
    if fisher == 0.0:
        return None
    return 1.0 / (sample_size * fisher)


def _fano_moments(values, occupancy, shots):
    """Per row of ``occupancy`` over the distinct counts ``values`` (as for
    :func:`bayes_estimates`), with ``shots`` shots each: the sum of the
    counts, the sample mean, the deviations n - mean of every value and the
    centered sum of squares sum_n m_n (n - mean)^2.  The sum is exact, in
    Python integers, so no count a :class:`CountRecord` holds overflows it,
    and the sum and the mean are rounded from it once."""
    total = np.asarray(occupancy, dtype=object) @ np.asarray(values, dtype=object)
    if (total == 0).any():
        raise UndefinedFanoError("sample mean is zero; Fano factor undefined")
    mean = (total / shots).astype(float)
    y = values - mean[:, None]
    return total.astype(float), mean, y, np.einsum("ij,ij->i", occupancy, y * y)


def empirical_fano(record: CountRecord) -> float:
    """Sample Fano factor: unbiased sample variance over sample mean."""
    m = record.sample_size
    if m < 2:
        raise ValueError(f"Fano factor needs at least 2 shots, got {m}")
    values, occurrences = record.histogram
    _, mean, _, q = _fano_moments(values, occurrences[None], m)
    return float(q[0] / (m - 1) / mean[0])


def _invertible_fano_terms(amps: DetectorPlaneAmplitudes, gamma: float) -> tuple[float, float]:
    """``photonstats._fano_terms``, the k and 4 a^2 b^2 that the Fano inversion
    divides by.  Raises ``ValueError`` where F has no phase to invert: 4 a^2 b^2
    is 0 in double precision, or |k| is within the rounding of F.  F - 1 is
    4a^2b^2 u/(a^2 + b^2) with u = (1 - k)/2 + k cos^2(phi) <= (1 + |k|)/2, so
    F holds u to one spacing of doubles there at best; the phase moves u by
    |k| at most, which at gamma = pi and 2 pi (|k| ~ 4e-17) is less."""
    k, scale = photonstats._fano_terms(amps, gamma)
    if not scale > 0.0:
        raise ValueError(
            "Fano inversion needs both detector amplitudes a and b > 0, with 4 a^2 b^2 > 0 "
            f"in double precision, got a={amps.a!r}, b={amps.b!r}"
        )
    if abs(k) <= math.ulp(0.5 * (1.0 + abs(k))):
        raise ValueError(
            f"Fano inversion needs F to carry the phase, but at gamma={gamma!r} its weight "
            f"sin(gamma)/gamma = {k:.2g} is within the rounding of F"
        )
    return k, scale


def invert_fano(fano, amps: DetectorPlaneAmplitudes, gamma: float = 0.0):
    """Phase whose Fano factor under phase noise of width ``gamma`` equals
    ``fano``: the closed form of :func:`photonstats.fano_factor` solved for
    cos^2(phi) = (R - (1 - k)/2)/k, with R = (F-1)(a^2+b^2)/(4a^2b^2) and
    k = sin(gamma)/gamma; without noise k = 1 and cos^2(phi) = R.

    cos^2(phi) is clamped to [0, 1] before the arccos (sampling noise pushes
    it outside near the edges); the flag reports whether clamping fired.  A
    float gives a float and a bool, an array one of each per entry.  Raises
    ``ValueError`` where F carries no phase (see :func:`_invertible_fano_terms`).
    """
    k, scale = _invertible_fano_terms(amps, gamma)
    fano = np.asarray(fano, dtype=float)
    with np.errstate(over="ignore"):  # a tiny scale sends ratios to +-inf, clamped like any
        cos2 = ((fano - 1.0) * amps.mean_photons / scale - 0.5 * (1.0 - k)) / k
    clamped = ~((0.0 <= cos2) & (cos2 <= 1.0))
    phi = np.arccos(np.sqrt(np.clip(cos2, 0.0, 1.0)))
    if fano.ndim == 0:
        return float(phi), bool(clamped)
    return phi, clamped


def fano_inversion_estimates(
    values, occupancy, amps: DetectorPlaneAmplitudes, gamma: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase estimates from the empirical Fano factors of many records, one per
    row, with their jackknife variances and clamp flags.

    The records come as for :func:`bayes_estimates`.  The point estimate
    inverts variance/mean (unbiased sample variance, :func:`invert_fano` at
    the noise width ``gamma``);
    the uncertainty is a leave-one-out jackknife over the shots, which needs
    at least 3 of them per record.  Shots with equal counts leave out the
    same moments, so all of it runs over the values.  A record whose sample
    mean vanishes carries no Fano information and raises
    :class:`UndefinedFanoError`.
    """
    occupancy = np.asarray(occupancy)
    m = occupancy.sum(axis=1)
    if (m < 3).any():
        raise ValueError(f"jackknife uncertainty needs at least 3 shots, got {m.min()}")
    total, mean, y, q = _fano_moments(values, occupancy, m)
    phi_hat, clamped = invert_fano(q / (m - 1) / mean, amps, gamma)
    # leave-one-out moments per value: the mean from the exact sum (0 when
    # the only nonzero shot leaves), the variance from centered sums
    m = m[:, None]
    mean_loo = (total[:, None] - values) / (m - 1)
    var_loo = np.maximum(q[:, None] - y * y * (m / (m - 1)), 0.0) / (m - 2)
    phi_loo, _ = invert_fano(
        np.where(mean_loo > 0.0, var_loo / np.maximum(mean_loo, 1e-300), 1.0), amps, gamma
    )
    w = occupancy.astype(float)
    d = phi_loo - np.einsum("ij,ij->i", w, phi_loo)[:, None] / m
    jack_var = (m[:, 0] - 1) / m[:, 0] * np.einsum("ij,ij->i", w, d * d)
    return phi_hat, jack_var, clamped


def fano_inversion_estimate(
    record: CountRecord, amps: DetectorPlaneAmplitudes, gamma: float = 0.0
) -> PhaseEstimate:
    """Phase estimate from the empirical Fano factor of a count record: the
    one-row call of :func:`fano_inversion_estimates` on its histogram."""
    values, occurrences = record.histogram
    phi_hat, jack_var, clamped = fano_inversion_estimates(values, occurrences[None], amps, gamma)
    return PhaseEstimate(
        mean=float(phi_hat[0]),
        variance=float(jack_var[0]),
        sample_size=record.sample_size,
        clamped=bool(clamped[0]),
    )
