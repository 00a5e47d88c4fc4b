"""Grid-based Bayesian inference of the signal/LO relative phase.

The photon statistics are invariant under phi -> -phi and phi -> pi - phi,
so the phase is identifiable only on [0, pi/2]; that interval carries the
uniform prior.  Posteriors live on a uniform grid, and every integral over it
(normalizer, normalization check, mean, variance, skewness) is a dot product
with the trapezoid weights the grid holds, computed once per grid object, so
a streaming shot pays no quadrature set-up.  A streaming update exponentiates
only the window of grid points within 746 of the peak, beyond which ``exp``
gives exactly 0, so its result is the full-grid arithmetic bit for bit.

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
1s).  A kind is its count-to-bin map alone: batch and streaming read the
ln P columns of both kinds from one cache of 256 columns, where a pnr column
is ln p_n, tabulated in log space, and the on/off columns are ln p_0 itself
and ln(1 - p_0) derived from it, so memory follows neither the size of a
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
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from . import photonstats
from .photonstats import _BLOCK_CELLS, DetectorPlaneAmplitudes, _check_gamma, _cutoff, _real, _whole

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

# exp(x) is exactly 0 for x below about -745.13
_EXP_UNDERFLOW = 746.0


class DegenerateEvidenceError(ValueError):
    """Raised when a likelihood is zero everywhere on the phase grid."""


class UndefinedFanoError(ValueError):
    """Raised when a record's sample mean vanishes and no Fano factor exists."""


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform phase grid of ``size`` >= 2 points over [lo, hi], finite with
    lo < hi (default the identifiable domain [0, pi/2], 2001 points)."""

    lo: float = 0.0
    hi: float = math.pi / 2
    size: int = 2001

    def __post_init__(self) -> None:
        lo, hi = _real("grid lo", self.lo), _real("grid hi", self.hi)
        if not lo < hi:
            raise ValueError(f"grid bounds must satisfy lo < hi, got [{lo!r}, {hi!r}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "size", _whole("grid size", self.size, 2))

    @cached_property
    def points(self) -> np.ndarray:
        pts = np.linspace(self.lo, self.hi, self.size)
        pts.setflags(write=False)
        return pts

    @cached_property
    def weights(self) -> np.ndarray:
        """Weights w with w @ f equal to the trapezoid rule of f over the grid points."""
        half = 0.5 * np.diff(self.points)
        w = np.zeros(self.size)
        w[:-1] += half
        w[1:] += half
        w.setflags(write=False)
        return w


def fold_phase(phi: float) -> float:
    """Identifiable representative in [0, pi/2] of a finite real phase, by the
    invariance of the photon statistics under phi -> -phi and phi -> pi - phi."""
    return abs(math.remainder(_real("phase phi", phi), math.pi))


@dataclass(frozen=True)
class CountRecord:
    """Detection record {n_k}: one photon count per shot, an integer in 0..2**63 - 1."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = _whole("counts", self.counts, 0, 2**63 - 1, array=True)
        if counts.ndim != 1:
            raise ValueError(f"counts must be one-dimensional, got shape {counts.shape}")
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
            object.__setattr__(self, name, arr.copy())
        self._seal()

    @classmethod
    def _adopt(cls, grid: PhaseGrid, log_density: np.ndarray, density: np.ndarray,
               evidence_log: float) -> PhasePosterior:
        """The library's constructor: it takes over two fresh float arrays of
        one entry per grid point, which nothing else holds, without copies."""
        post = object.__new__(cls)
        vars(post).update(grid=grid, log_density=log_density, density=density,
                          evidence_log=evidence_log)
        post._seal()
        return post

    def _seal(self) -> None:
        """Make both arrays read-only and check that the density integrates to one."""
        self.log_density.setflags(write=False)
        self.density.setflags(write=False)
        total = float(self.grid.weights @ self.density)
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-8):
            raise ValueError(f"posterior density integrates to {total!r}, not 1")


@dataclass(frozen=True)
class PhaseEstimate:
    """Point estimate of the phase with its uncertainty.

    ``clamped`` marks Fano inversions whose moment ratio fell outside the
    invertible range; ``skewness`` is recorded for posterior shape diagnostics.
    """

    mean: float
    variance: float
    clamped: bool = False
    skewness: float | None = None

    def __post_init__(self) -> None:
        if not self.variance >= 0.0:  # NaN too
            raise ValueError(f"variance must be nonnegative, got {self.variance!r}")


# (amps, gamma, grid, kind, bin) -> ln P over the grid, oldest use first; 256 columns
_LOG_COLUMNS: dict = {}

# the count-to-bin map of each detector kind: pnr bins are the photon numbers,
# on/off bins their coarsening {0}, {n >= 1}
_KINDS = {"pnr": lambda n: n, "onoff": lambda n: np.minimum(n, 1)}


def _kind(detector_kind: DetectorKind):
    """The count-to-bin map of a detector kind."""
    try:
        return _KINDS[detector_kind]
    except (KeyError, TypeError):
        raise ValueError(f"detector_kind must be 'onoff' or 'pnr', got {detector_kind!r}") from None


def _log_columns(amps: DetectorPlaneAmplitudes, gamma: float, grid: PhaseGrid,
                 kind: DetectorKind, bins) -> list[np.ndarray]:
    """Read-only ln P over the grid for each of the distinct ``bins``, in ascending
    order, of a detector kind, from one cache of 256 columns for both kinds.

    A pnr bin n is ln p_n, -inf only where the model forbids n; the uncached ones
    come from one tabulator call.  The on/off bin 0 is the pnr column of n = 0,
    the same object, and bin 1 is ln(1 - p_0) from it, taken as -inf where ln p_0
    is within N eps of 0, the rounding of a noise average on N nodes: 1 - p_0
    holds no digit of P_on there.
    """
    keys = [(amps, gamma, grid, kind if k else "pnr", int(k)) for k in bins]
    cols = [_LOG_COLUMNS.pop(key, None) for key in keys]
    if missing := [i for i, key in enumerate(keys) if cols[i] is None and key[3] == "pnr"]:
        counts = np.array([keys[i][4] for i in missing])
        for i, col in zip(missing, photonstats._log_tables(amps, grid.points, counts, gamma)[0].T):
            cols[i] = np.ascontiguousarray(col)  # a copy, unless it is the table's one column
            cols[i].setflags(write=False)
    if cols and cols[-1] is None:  # the on/off bin 1
        log_off = cols[0] if len(cols) == 2 else _log_columns(amps, gamma, grid, "pnr", [0])[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            cols[-1] = np.log1p(-np.exp(log_off))
        cols[-1][log_off > -photonstats._noise_nodes(amps, gamma) * np.finfo(float).eps] = -np.inf
        cols[-1].setflags(write=False)
    _LOG_COLUMNS.update(zip(keys, cols))
    while len(_LOG_COLUMNS) > 256:
        _LOG_COLUMNS.pop(next(iter(_LOG_COLUMNS)), None)
    return cols


def _histogram_rows(values, occupancy) -> tuple[np.ndarray, np.ndarray]:
    """``values`` and ``occupancy`` as arrays, checked to hold records: distinct nonnegative
    integer counts in ascending order, and a 2-D array of their occurrences per record."""
    values = _whole("values", values, 0, array=True)
    occupancy = _whole("occupancy", occupancy, 0, array=True)
    if not (values.ndim == 1 and (values[1:] > values[:-1]).all()):
        raise ValueError("values must be distinct nonnegative integer counts in ascending order")
    if not (occupancy.ndim == 2 and occupancy.shape[1] == values.size):
        raise ValueError("occupancy must be 2-D nonnegative integers, one column per value")
    return values, occupancy


def _loglik(values, occupancy, detector_kind: DetectorKind, amps, gamma: float,
            grid: PhaseGrid) -> np.ndarray:
    """The likelihood kernel: row r of the result is sum_k w_rk ln P_k over the
    bins k of a detector kind.

    ``values`` are distinct counts in ascending order and ``occupancy`` holds
    one row of their occurrences per record: a dense row over 0..cap, or the
    one row of a :attr:`CountRecord.histogram`.  Each count adds its
    occurrences to its bin, w_rk; a bin map is monotone, so a bin is a run of
    consecutive occupied values.  The ln P_k columns (:func:`_log_columns`)
    go one block at a time.  Each block of at most ``_BLOCK_CELLS`` table
    cells is one matrix product, so memory does not follow the number of bins.
    An empty bin adds 0 even where its ln P_k is -inf, so no 0 * -inf arises,
    and a grid point where an occupied bin is impossible gets -inf.
    """
    bin_of = _kind(detector_kind)
    gamma = _check_gamma(gamma)
    used = occupancy.any(axis=0)
    bins, first = np.unique(bin_of(values[used]), return_index=True)
    weights = np.add.reduceat(occupancy[:, used], first, axis=1).astype(float)
    ll = np.zeros((len(weights), grid.size))
    step = max(1, _BLOCK_CELLS // grid.size)
    for start in range(0, len(bins), step):
        w = weights[:, start : start + step]
        cols = np.array(_log_columns(amps, gamma, grid, detector_kind, bins[start : start + step]))
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
    return _loglik(values, occurrences[None], "pnr", amps, gamma, grid)[0]


def log_likelihood_onoff(
    record: CountRecord,
    amps: DetectorPlaneAmplitudes,
    gamma: float,
    grid: PhaseGrid,
) -> np.ndarray:
    """Log-likelihood m_off ln P_off + m_on ln(1 - P_off) with P_off = p_0, where
    m_off counts the shots of the record with n = 0 and m_on the others."""
    values, occurrences = record.histogram
    return _loglik(values, occurrences[None], "onoff", amps, gamma, grid)[0]


def posterior(loglik, grid: PhaseGrid) -> PhasePosterior:
    """Posterior from a log-likelihood over the grid under the uniform prior.

    The constant prior cancels out of the density and is absorbed in the
    evidence convention (see :class:`PhasePosterior`).
    """
    ll = np.array(loglik, dtype=float)  # a copy, which _normalized takes over
    if ll.shape != (grid.size,):
        raise ValueError("log-likelihood must have one entry per grid point")
    if np.isnan(ll).any():
        raise ValueError("log-likelihood contains NaN")
    return _normalized(ll, grid, 0.0)


def _normalized(log_unnorm: np.ndarray, grid: PhaseGrid, evidence_log: float) -> PhasePosterior:
    """Posterior of an unnormalized log density, by max-subtracted exponentiation
    and trapezoid normalization; its log normalizer is added to the evidence.

    It takes over ``log_unnorm``, a fresh array, and normalizes it in place.
    Only the window from the first to the last grid point within 746 of the
    peak is exponentiated: beyond it ``exp`` gives exactly 0, so the density
    and the full-grid normalizer are those of ``exp`` over every point, bit
    for bit.
    """
    peak = log_unnorm.max()
    if not math.isfinite(peak):
        raise DegenerateEvidenceError("likelihood vanishes at every grid point")
    x = log_unnorm - peak
    near = np.flatnonzero(x >= -_EXP_UNDERFLOW)
    window = slice(near[0], near[-1] + 1)
    dens = np.zeros(grid.size)
    np.exp(x[window], out=dens[window])
    # dens is 1 at the peak and in [0, 1] elsewhere, so z is finite and positive
    z = float(grid.weights @ dens)
    log_norm = peak + math.log(z)
    log_unnorm -= log_norm
    dens /= z
    return PhasePosterior._adopt(grid, log_unnorm, dens, evidence_log + log_norm)


def bayes_estimate(post: PhasePosterior) -> PhaseEstimate:
    """Posterior mean, central variance and skewness by trapezoid quadrature.

    The moments are taken about the mean, so no raw-moment cancellation
    occurs.
    """
    pts = post.grid.points
    weighted = post.density * post.grid.weights
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
    return PhaseEstimate(mean=mean, variance=var, skewness=skew)


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
    value in record r (see :func:`_loglik`).  The rows go in blocks of at most
    ``_BLOCK_CELLS`` log-likelihood cells, each one call of the likelihood
    kernel, and each block's moments come from one in-place pass over the
    kernel's output, on the block's window (:func:`_posterior_moments`), so
    memory does not follow the number of records.  The moments are those of
    :func:`bayes_estimate` up to the rounding of their sums, and a row whose
    posterior :func:`posterior` would reject raises what it raises, and
    rows that are not such a histogram raise ``ValueError``.
    """
    values, occupancy = _histogram_rows(values, occupancy)
    step = max(1, _BLOCK_CELLS // grid.size)
    means, variances = np.empty(len(occupancy)), np.empty(len(occupancy))
    for start in range(0, len(occupancy), step):
        block = _loglik(values, occupancy[start : start + step], detector_kind, amps, gamma, grid)
        rows = slice(start, start + len(block))
        means[rows], variances[rows] = _posterior_moments(block, grid)
    return means, variances


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
    ll, weights, points = ll[:, window], grid.weights[window], grid.points[window]
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
    reproduces the batch posterior.  An event outside the integers 0..2**63 - 1
    of a :class:`CountRecord`, or a gamma not in [0, 2 pi], raises ``ValueError``.
    """
    event = _whole("photon count", event, 0, 2**63 - 1)
    bin_of = _kind(detector_kind)
    ll = _log_columns(amps, _check_gamma(gamma), post.grid, detector_kind, [bin_of(event)])[0]
    return _normalized(post.log_density + ll, post.grid, post.evidence_log)


def uniform_posterior(grid: PhaseGrid) -> PhasePosterior:
    """The prior state: a flat posterior before any data."""
    return posterior(np.zeros(grid.size), grid)


def _fisher(amps: DetectorPlaneAmplitudes, phi, gamma: float, n_max: int | None, bins):
    """The Fisher kernel, sum_k (dP_k/dphi)^2 / P_k over the bins k with P_k > 0, from
    the tables of p_n and d p_n/d phi over n = 0..n_max; ``bins(p, *xs)`` maps rows of
    p_n, and rows linear in p_n, to rows over the bins.  Phases go in blocks of bounded size.

    The result is exactly 0 where rounding alone could give it.  d p_n/dphi
    sums, over the N nodes of the noise average (1 without noise), terms
    ab sin(phi - psi) (Pois(n-1; nu) - Pois(n; nu)) of the two components whose
    sizes add up to at most S_n = 2ab (p_{n-1} + p_n), so it is off by up to
    N eps S_n, and F by up to sum_k (N eps S_k)^2 / P_k over the bins.  The
    true F is 0 at gamma = pi and 2 pi, whose windows span whole periods.
    """
    phis = _real("phase phi", phi, array=True)
    flat = phis.ravel()
    gamma, n_max = _check_gamma(gamma), _cutoff(amps, n_max)
    step = max(1, _BLOCK_CELLS // (n_max + 1))
    rounding = photonstats._noise_nodes(amps, gamma) * np.finfo(float).eps * 2.0 * amps.a * amps.b
    info = np.empty(flat.size)
    for start in range(0, flat.size, step):
        p, dp = (table(amps, flat[start : start + step], gamma, n_max)
                 for table in (photonstats.pmf_table, photonstats.dphi_table))
        err = rounding * p
        err[:, 1:] += rounding * p[:, :-1]  # N eps S_n
        p, dp, err = bins(p, dp, err)
        terms, floor = (np.divide(x * x, p, out=np.zeros_like(p), where=p > 0.0).sum(axis=1)
                        for x in (dp, err))
        info[start : start + step] = np.where(terms > floor, terms, 0.0)
    return float(info[0]) if phis.ndim == 0 else info.reshape(phis.shape)


def fisher_pnr(amps: DetectorPlaneAmplitudes, phi, gamma: float = 0.0) -> float | np.ndarray:
    """Fisher information of the photon-number-resolved model, the kernel
    sum_n (d p_n/d phi)^2 / p_n over the bins n = 0..cutoff with p_n > 0, at a
    phase (a float) or at each phase of an array; a phase that is not finite
    raises ``ValueError``.  Zero at phi = 0 and pi/2, where the statistics are
    stationary: the no-information regime, not an error.
    """
    return _fisher(amps, phi, gamma, None, lambda *rows: rows)


def fisher_onoff(amps: DetectorPlaneAmplitudes, phi, gamma: float = 0.0) -> float | np.ndarray:
    """Fisher information of the on/off model: the same kernel over the
    coarse-grained bins {0}, {n >= 1}, P = (p_0, 1 - p_0) with P > 0.  Phases
    as for :func:`fisher_pnr`; 0.0 where a bin is certain or p_0 is stationary."""
    return _fisher(amps, phi, gamma, 0, lambda p, *xs: (
        np.hstack([p, 1.0 - p]), *(np.hstack([x, -x]) for x in xs)))


def crlb_variance(fisher: float, sample_size: int) -> float | None:
    """Cramer-Rao variance floor 1/(M*F) for a finite F >= 0 and an integer
    M >= 1; None when F = 0 (unbounded variance)."""
    sample_size = _whole("sample_size", sample_size, 1)
    fisher = _real("Fisher information", fisher, 0.0)
    return None if fisher == 0.0 else 1.0 / (sample_size * fisher)


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
    it outside near the edges); the flag reports whether clamping fired.  A finite real
    gives a float and a bool, an array of them one of each per entry; anything else raises
    ``ValueError``, as does F without phase information (:func:`_invertible_fano_terms`).
    """
    k, scale = _invertible_fano_terms(amps, gamma)
    fano = _real("Fano factor", fano, array=True)
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
    values, occupancy = _histogram_rows(values, occupancy)
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
    return PhaseEstimate(float(phi_hat[0]), float(jack_var[0]), clamped=bool(clamped[0]))
