"""Grid-based Bayesian inference of the signal/LO relative phase.

The photon statistics are invariant under phi -> -phi and phi -> pi - phi,
so the phase is identifiable only on [0, pi/2]; that interval carries the
uniform prior.  Posteriors live on a uniform grid, and every integral over it
(normalizer, normalization check, mean, variance, skewness) is a dot product
with the grid's cached trapezoid weights, so a streaming shot pays no
quadrature set-up.

One kernel turns photon-number histograms, the sufficient statistic, into
log-likelihoods: a (records x bins) matrix of occupations w_k times the
(bins x grid) table of ln P_k, one row sum_k w_k ln P_k per record, where an
empty bin adds 0 even at grid points where its ln P_k is -inf.  The table
goes in blocks of bins, and :func:`bayes_estimates` passes many records in
blocks of rows, each of bounded size; one record is one row.
Photon-number-resolved ("pnr") bins are the distinct counts; on/off bins
are their coarse-graining {0}, {n >= 1}.  Batch and streaming read ln p_n
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
  factor, with a leave-one-out jackknife uncertainty; both run over the
  distinct counts of the histogram, with the mean from the exact integer
  sum of the counts.

Posterior values are immutable in spirit: updates return new objects, so
distinct posteriors may be processed in parallel; a single streaming chain
must be advanced by one writer at a time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Literal, Sequence

import numpy as np

from . import photonstats
from .photonstats import DetectorPlaneAmplitudes

__all__ = [
    "PhaseGrid",
    "PhasePosterior",
    "PhaseEstimate",
    "CountRecord",
    "OnOffRecord",
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
    "fold_phase",
]

DetectorKind = Literal["onoff", "pnr"]

# Cells per block of Fisher table rows (phases), of likelihood columns
# (bins) or of log-likelihood rows (records): photonstats' noise-average
# budget.
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

    def occurrences(self, minlength: int = 0) -> np.ndarray:
        """Occurrence counts m_n (the sufficient statistics); sum(m) == M."""
        if self.counts.size == 0:
            return np.zeros(minlength, dtype=np.int64)
        return np.bincount(self.counts, minlength=minlength)


@dataclass(frozen=True)
class OnOffRecord:
    """Coarse-grained record: m_off vacuum shots and m_on bright shots."""

    m_on: int
    m_off: int

    def __post_init__(self) -> None:
        if self.m_on < 0 or self.m_off < 0:
            raise ValueError("event counts must be nonnegative")
        object.__setattr__(self, "m_on", int(self.m_on))
        object.__setattr__(self, "m_off", int(self.m_off))

    @property
    def sample_size(self) -> int:
        return self.m_on + self.m_off


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


def _log_onoff(amps: DetectorPlaneAmplitudes, gamma: float, grid: PhaseGrid, on: int) -> np.ndarray:
    """ln P over the grid for the on/off bin {0} (on = 0) or {n >= 1} (on = 1)."""
    log_off = _log_pmf(amps, gamma, grid, 0)
    if not on:
        return log_off
    with np.errstate(divide="ignore"):
        return np.log1p(-np.exp(log_off))


def _bins(histograms, detector_kind: DetectorKind):
    """The ln P column of a detector kind's bins (``_log_pmf`` or
    ``_log_onoff``), the bins, and one row of bin occupations per histogram.

    Histograms are pairs (distinct counts, occurrences) like
    :attr:`CountRecord.histogram`.  Photon-number-resolved bins are the union
    of their distinct counts; on/off bins are the coarse-graining {0},
    {n >= 1} of it.
    """
    ns = np.unique(np.concatenate([v for v, _ in histograms]))
    weights = np.zeros((len(histograms), ns.size))
    for row, (v, occ) in zip(weights, histograms):
        row[np.searchsorted(ns, v)] = occ
    if detector_kind == "pnr":
        return _log_pmf, ns, weights
    if detector_kind == "onoff":
        off = weights[:, 0] if ns.size and ns[0] == 0 else np.zeros(len(weights))
        return _log_onoff, (0, 1), np.column_stack([off, weights.sum(axis=1) - off])
    raise ValueError(f"detector_kind must be 'onoff' or 'pnr', got {detector_kind!r}")


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
        if impossible.any():
            cols[impossible] = 0.0
            ll[(w > 0) @ impossible] = -np.inf
        ll += w @ cols
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
    return _loglik(*_bins([record.histogram], "pnr"), amps, float(gamma), grid)[0]


def log_likelihood_onoff(
    record: OnOffRecord,
    amps: DetectorPlaneAmplitudes,
    gamma: float,
    grid: PhaseGrid,
) -> np.ndarray:
    """Log-likelihood m_off ln P_off + m_on ln(1 - P_off) with P_off = p_0."""
    weights = [[record.m_off, record.m_on]]
    return _loglik(_log_onoff, (0, 1), weights, amps, float(gamma), grid)[0]


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
    z = float(_trapezoid_weights(grid) @ dens)
    if not (math.isfinite(z) and z > 0.0):
        raise DegenerateEvidenceError("posterior normalization is degenerate")
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
    skew = None
    if var > 0.0:
        # squared * centered, not centered**3: np.power is the slowest step here
        third = float(weighted @ (squared * centered))
        skew = third / var**1.5
    return PhaseEstimate(
        mean=mean, variance=var, sample_size=sample_size, skewness=skew
    )


def bayes_estimates(
    histograms: Sequence[tuple[np.ndarray, np.ndarray]],
    amps: DetectorPlaneAmplitudes,
    gamma: float,
    grid: PhaseGrid,
    detector_kind: DetectorKind,
) -> list[PhaseEstimate]:
    """:func:`bayes_estimate` of the posterior of each of many records.

    Each record comes as its histogram, a pair (distinct counts, occurrences)
    like :attr:`CountRecord.histogram`.  The records go in blocks of at most
    ``_BLOCK_CELLS`` log-likelihood cells, each one call of the likelihood
    kernel over the bins of its histograms, so memory does not follow the
    number of records.
    """
    step = max(1, _BLOCK_CELLS // grid.size)
    estimates = []
    for start in range(0, len(histograms), step):
        column, bins, weights = _bins(histograms[start : start + step], detector_kind)
        block = _loglik(column, bins, weights, amps, float(gamma), grid)
        for ll, size in zip(block, weights.sum(axis=1)):
            estimates.append(bayes_estimate(posterior(ll, grid), sample_size=int(size)))
    return estimates


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
    reproduces the batch posterior.
    """
    event = operator.index(event)
    if event < 0:
        raise ValueError(f"photon count must be nonnegative, got {event!r}")
    if detector_kind == "pnr":
        ll = _log_pmf(amps, float(gamma), post.grid, event)
    elif detector_kind == "onoff":
        ll = _log_onoff(amps, float(gamma), post.grid, min(event, 1))
    else:
        raise ValueError(f"detector_kind must be 'onoff' or 'pnr', got {detector_kind!r}")
    return _normalized(post.log_density + ll, post.grid, post.evidence_log)


def uniform_posterior(grid: PhaseGrid) -> PhasePosterior:
    """The prior state: a flat posterior before any data."""
    return posterior(np.zeros(grid.size), grid)


def _fisher(amps: DetectorPlaneAmplitudes, phi, gamma: float, n_max: int | None, bins):
    """The Fisher kernel, sum_k (dP_k/dphi)^2 / P_k over the bins k with P_k > 0;
    ``bins(p, dp)`` maps the rows of p_n and d p_n/d phi over n = 0..n_max to
    rows of P_k and dP_k/dphi.  Phases go in blocks of bounded table size."""
    phis = np.asarray(phi, dtype=float)
    flat = phis.ravel()
    cols = (photonstats.default_cutoff(amps) if n_max is None else n_max) + 1
    step = max(1, _BLOCK_CELLS // cols)
    info = np.empty(flat.size)
    for start in range(0, flat.size, step):
        block = flat[start : start + step]
        p, dp = bins(
            photonstats.pmf_table(amps, block, gamma, n_max=n_max),
            photonstats.dphi_table(amps, block, gamma, n_max=n_max),
        )
        terms = np.divide(dp * dp, p, out=np.zeros_like(p), where=p > 0.0)
        info[start : start + step] = terms.sum(axis=1)
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


def _fano_moments(record: CountRecord) -> tuple[int, np.ndarray, float]:
    """Sum of the counts (an exact integer), the deviations n - mean of the
    distinct counts and the centered sum of squares sum_n m_n (n - mean)^2,
    from the record's histogram."""
    values, occ = record.histogram
    total = sum(map(operator.mul, values.tolist(), occ.tolist()))
    if total == 0:
        raise UndefinedFanoError("sample mean is zero; Fano factor undefined")
    y = values - total / record.sample_size
    return total, y, float(occ @ (y * y))


def empirical_fano(record: CountRecord) -> float:
    """Sample Fano factor: unbiased sample variance over sample mean."""
    m = record.sample_size
    if m < 2:
        raise ValueError(f"Fano factor needs at least 2 shots, got {m}")
    total, _, q = _fano_moments(record)
    return q / (m - 1) / (total / m)


def invert_fano(fano: float, amps: DetectorPlaneAmplitudes) -> tuple[float, bool]:
    """Phase whose Fano factor equals ``fano``: cos^2(phi) = (F-1)(a^2+b^2)/(4a^2b^2).

    The ratio is clamped to [0, 1] before the arccos (sampling noise pushes
    it outside near the edges); the flag reports whether clamping fired.
    """
    if amps.a * amps.b <= 0.0:
        raise ValueError("Fano inversion needs a > 0 and b > 0")
    ratio = (fano - 1.0) * amps.mean_photons / (4.0 * amps.a**2 * amps.b**2)
    clamped = not 0.0 <= ratio <= 1.0
    ratio = min(max(ratio, 0.0), 1.0)
    return math.acos(math.sqrt(ratio)), clamped


def fano_inversion_estimate(
    record: CountRecord, amps: DetectorPlaneAmplitudes
) -> PhaseEstimate:
    """Phase estimate from the empirical Fano factor of a count record.

    The point estimate inverts variance/mean (unbiased sample variance); the
    uncertainty is a leave-one-out jackknife over the shots, which needs at
    least 3 of them.  Shots with equal counts leave out the same moments, so
    all of it runs over the distinct counts of the record's histogram.
    Records whose sample mean vanishes carry no Fano information and raise
    :class:`UndefinedFanoError`.
    """
    m = record.sample_size
    if m < 3:
        raise ValueError(f"jackknife uncertainty needs at least 3 shots, got {m}")
    values, occ = record.histogram
    total, y, q = _fano_moments(record)
    phi_hat, clamped = invert_fano(q / (m - 1) / (total / m), amps)

    # leave-one-out moments per distinct count: the mean from the exact sum
    # (0 when the only nonzero shot leaves), the variance from centered sums
    mean_loo = (float(total) - values) / (m - 1)
    var_loo = np.maximum(q - y * y * (m / (m - 1)), 0.0) / (m - 2)
    ratio = np.where(mean_loo > 0.0, var_loo / np.maximum(mean_loo, 1e-300), 1.0)
    ratio = np.clip((ratio - 1.0) * amps.mean_photons / (4.0 * amps.a**2 * amps.b**2), 0.0, 1.0)
    phi_loo = np.arccos(np.sqrt(ratio))
    w = occ.astype(float)
    d = phi_loo - (w @ phi_loo) / m
    jack_var = (m - 1) / m * float(w @ (d * d))

    return PhaseEstimate(
        mean=phi_hat,
        variance=jack_var,
        crlb=None,
        sample_size=m,
        clamped=clamped,
    )
