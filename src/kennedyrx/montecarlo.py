"""Seeded simulation of detection records and estimator benchmarking.

Records are drawn from the exact receiver model: each shot picks one of the
two encoded signs with probability 1/2, optionally a uniform phase-noise
offset, and then a Poisson photon count with the corresponding mean, drawn
by CDF inversion.  Without phase noise every shot has one of two means, so
the CDFs of both are tabulated once per configuration as integer thresholds
on the generator's raw 64-bit words, and each shot's count is one gather
from a table indexed by its sign and the top bits of its word (a search in
its row only for the few words near a threshold); with phase noise every
shot has its own mean, and a sequential search runs over the shots it has
not yet decided.  Both paths form the CDF with the same arithmetic, so they
draw the same count from the same uniform, whose word the table reads.
Signs come from raw words on both paths.  Every experiment derives its
generator from (seed, spawn key), so replications are independent streams
that can run in any order (or in parallel) and still reproduce bit-for-bit.
A convergence sweep draws each (M, replication) record once and keeps only
its photon-count histogram, the sufficient statistic: one ``bincount`` row
over 0..cap, the largest count a draw returns, so every row has the same
bounded length.  It goes through the replications of one M in blocks of such
rows, and every estimator it compares reads the whole block at once: the
Bayes methods as one likelihood product whose rows go through the posterior
kernel of a streamed shot, the Fano method as one jackknife kernel.  The
M-shot records of a block are never held together.  On/off detection reads
the same count record as PNR detection, through its coarse-graining
{0}, {n >= 1}, so no record is converted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
import numpy.random  # every draw needs it; loading it here keeps it out of the first op

from . import _EXPORTS, estimation, photonstats
from .estimation import CountRecord, PhaseGrid
from .photonstats import DetectorPlaneAmplitudes, PhotonPmf, _check_gamma, _real, _whole

__all__ = [*_EXPORTS["montecarlo"], "DEFAULT_M_LIST", "METHODS"]

# Default sweep sample sizes: two and a half decades, log-spaced.
DEFAULT_M_LIST = (100, 300, 1000, 3000, 10000, 30000)

# The estimators a convergence sweep compares, each with the detector kind
# whose Fisher information is its CRLB reference and which a Bayes method
# reads.  The Fano route consumes the full photon statistics: pnr.
_METHOD_KINDS = {"bayes-pnr": "pnr", "bayes-onoff": "onoff", "fano-inversion": "pnr"}
METHODS = tuple(_METHOD_KINDS)

_MIN_EXPECTED_PER_BIN = 5.0


class InsufficientSupportError(ValueError):
    """Raised when a goodness-of-fit test cannot form at least two bins."""


@dataclass(frozen=True)
class SimConfig:
    """One simulated experiment: who measures what, how often, and from which seed.
    A finite ``phi_star``, ``gamma`` in [0, 2 pi], integers M, replications >= 1
    and a seed in [0, 2**64 - 1]."""

    amps: DetectorPlaneAmplitudes
    phi_star: float
    M: int
    seed: int
    gamma: float = 0.0
    replications: int = 50

    def __post_init__(self) -> None:
        if not isinstance(self.amps, DetectorPlaneAmplitudes):
            raise ValueError("amps must be DetectorPlaneAmplitudes (receiver.detector_amplitudes "
                             f"maps physical parameters to them), got {type(self.amps).__name__}")
        object.__setattr__(self, "phi_star", _real("phi_star", self.phi_star))
        object.__setattr__(self, "M", _whole("M", self.M, 1))
        object.__setattr__(self, "seed", _whole("seed", self.seed, 0, 2**64 - 1))
        object.__setattr__(self, "gamma", _check_gamma(self.gamma))
        object.__setattr__(self, "replications", _whole("replications", self.replications, 1))


@dataclass(frozen=True)
class SweepRow:
    """Ensemble statistics of one sample size in a convergence sweep."""

    M: int
    mean_ratio: float
    sd_of_estimates: float
    mean_variance: float
    crlb: float | None


@dataclass(frozen=True)
class SweepResult:
    """Convergence-sweep output: ensemble rows plus per-replication trajectories."""

    method: str
    rows: tuple[SweepRow, ...]
    estimates: np.ndarray  # (len(m_list), replications)
    variances: np.ndarray  # (len(m_list), replications)

    @property
    def m_list(self) -> tuple[int, ...]:
        return tuple(row.M for row in self.rows)


class DiscriminationResult(NamedTuple):
    error_rate: float
    std_error: float
    n_errors: int
    sample_size: int


class GofResult(NamedTuple):
    statistic: float
    p_value: float


def stream(seed: int, *key: int) -> np.random.Generator:
    """Reproducible generator for experiment ``seed`` and derived stream ``key``.

    Distinct keys give statistically independent streams (SeedSequence
    spawning), so replications never share random numbers.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


# Above this mean exp(-nu) nears the double-precision underflow (~708) and
# would stall the recurrence p_k = p_{k-1} * nu/k at 0, so the samplers take
# p_k (k >= 1) from log space instead: exp(k ln nu - nu - ln k!).
_LOG_SPACE_MEAN = 700.0


def _poisson_inversion(rng: np.random.Generator, nu: np.ndarray, cap: int) -> np.ndarray:
    """Poisson draws by CDF inversion with sequential search, one uniform per draw.

    The sampler for records with phase noise, where every shot has its own
    mean.  Step k adds p_k to the running CDF of every shot whose uniform
    it has not yet passed, and drops the shots it passes, so the work is
    O(M + sum of the counts): in effect a per-shot CDF table built only as
    far as each shot needs it.  Independent of any library
    sampling algorithm, so records are stable across numpy versions.  Draws
    stop at ``cap``.  Records without phase noise take :func:`_cdf_lookup`,
    which returns what this search returns on the raw words of the same
    uniforms.
    """
    u = rng.random(nu.shape)
    out = np.zeros(nu.shape, dtype=np.int64)
    p0 = np.exp(-nu)
    idx = np.flatnonzero(u >= p0)
    term, cum, u, nu = p0[idx], p0[idx], u[idx], nu[idx]
    k = 0
    while idx.size and k < cap:
        k += 1
        term *= nu / k
        big = nu > _LOG_SPACE_MEAN
        if big.any():
            term[big] = np.exp(photonstats._log_poisson_rows(nu[big], np.array([k]))[:, 0])
        cum += term
        out[idx] = k
        keep = u >= cum
        idx, term, cum, u, nu = idx[keep], term[keep], cum[keep], u[keep], nu[keep]
    return out


# A word's bucket in the table of _cdf_table: its top bits.
_BUCKET_BITS = 12


@lru_cache(maxsize=16)
def _cdf_table(means: tuple[float, ...], cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer CDF thresholds of the Poisson ``means`` for k = 0..cap, and their bucket table.

    A uniform of the generator is u = (w >> 11) * 2**-53 for a raw 64-bit
    word w, so u >= C exactly when w >> 11 >= ceil(C * 2**53).  Row j holds
    these thresholds for the running sums the sequential search of
    :func:`_poisson_inversion` forms for a shot of mean means[j], by the same
    arithmetic, clipped at 2**53, which no word reaches; then 2**53 as a
    sentinel: cap + 2 entries per row.  They come flattened with j << 54
    added to row j, so the whole array is sorted and one ``searchsorted``
    serves every row.  The bucket table has 2**_BUCKET_BITS entries per row,
    one per value of a word's top _BUCKET_BITS bits: an entry holds the
    count, min(number of thresholds <= w >> 11, cap), when it is the same for
    every word w of its bucket, and -1 when a threshold falls inside the
    bucket.  Both
    arrays are read-only; the table depends on the means and cap alone, so
    one table serves every record of a configuration.
    """
    nu = np.array(means)
    rows = np.empty((nu.size, cap + 2))
    terms = rows[:, :-1]
    terms[:, 0] = np.exp(-nu)
    np.divide(nu[:, None], np.arange(1, cap + 1), out=terms[:, 1:])
    # p_k = p_{k-1} * nu/k and the running sums, step by step as in the search
    np.multiply.accumulate(terms, axis=1, out=terms)
    big = nu > _LOG_SPACE_MEAN
    if big.any():
        terms[big, 1:] = np.exp(photonstats._log_poisson_rows(nu[big], np.arange(1, cap + 1)))
    np.add.accumulate(terms, axis=1, out=terms)
    rows[:, -1] = 1.0
    base = np.arange(nu.size, dtype=np.uint64)[:, None] << 54
    thresholds = (np.minimum(np.ceil(rows * 2.0**53), 2.0**53).astype(np.uint64) + base).ravel()
    first = base + (np.arange(1 << _BUCKET_BITS, dtype=np.uint64) << (53 - _BUCKET_BITS))
    last = first + ((1 << (53 - _BUCKET_BITS)) - 1)
    offset = np.arange(nu.size)[:, None] * (cap + 2)
    lo, hi = (np.minimum(np.searchsorted(thresholds, x, side="right") - offset, cap)
              for x in (first, last))
    buckets = np.where(lo == hi, lo, -1).ravel()
    thresholds.setflags(write=False)
    buckets.setflags(write=False)
    return thresholds, buckets


def _cdf_lookup(
    words: np.ndarray, row: np.ndarray, means: tuple[float, ...], cap: int
) -> np.ndarray:
    """Poisson draws by CDF inversion from the table of :func:`_cdf_table`.

    Shot i has mean means[row[i]] (``row`` of any integer dtype) and raw
    generator word words[i] (uint64), whose uniform is (words[i] >> 11) *
    2**-53.  Its count is the number of its row's thresholds <= words[i] >>
    11: the count at which the sequential search stops on that uniform.  One
    gather from the bucket table gives it for almost every shot; the shots
    of marked buckets take one ``searchsorted`` in their row.  Draws stop at
    ``cap``.
    """
    thresholds, buckets = _cdf_table(means, cap)
    key = (words >> (64 - _BUCKET_BITS)).view(np.int64)
    key |= np.left_shift(row, _BUCKET_BITS, dtype=np.int64)
    out = buckets[key]
    marked = np.flatnonzero(out < 0)
    if marked.size:
        r = row[marked].astype(np.intp)
        x = (words[marked] >> 11) + (r.astype(np.uint64) << 54)
        out[marked] = np.minimum(np.searchsorted(thresholds, x, side="right") - r * (cap + 2), cap)
    return out


def _count_cap(amps: DetectorPlaneAmplitudes) -> int:
    """The largest count a draw returns: 64 above the pmf cutoff."""
    return photonstats.default_cutoff(amps) + 64


def _draw_counts(
    rng: np.random.Generator,
    amps: DetectorPlaneAmplitudes,
    phi: float,
    gamma: float,
    plus: np.ndarray,
) -> np.ndarray:
    """Counts of shots whose sign is + where ``plus`` is true, - elsewhere.

    Without phase noise every shot has one of the two means nu-/+, and the
    draws come from their CDF table; with it, from the per-shot search.
    """
    cap = _count_cap(amps)
    if gamma > 0.0:
        psi = rng.uniform(-0.5 * gamma, 0.5 * gamma, size=plus.size)
        nu_p, nu_m = photonstats._means(amps.a, amps.b, np.cos(phi - psi))
        return _poisson_inversion(rng, np.where(plus, nu_p, nu_m), cap)
    nu_p, nu_m = photonstats.nu_plus_minus(amps, phi)
    words = rng.bit_generator.random_raw(plus.size)
    return _cdf_lookup(words, plus.view(np.uint8), (nu_m, nu_p), cap)


def _draw_record(cfg: SimConfig, replication: int) -> np.ndarray:
    """The counts of :func:`sample_counts`, a fresh int64 array in 0..cap."""
    rng = stream(cfg.seed, cfg.M, replication)
    # rng.random() < 0.5 exactly when the raw word is below 2**63 (see _cdf_table)
    plus = rng.bit_generator.random_raw(cfg.M) < 2**63
    return _draw_counts(rng, cfg.amps, cfg.phi_star, cfg.gamma, plus)


def sample_counts(cfg: SimConfig, replication: int = 0) -> CountRecord:
    """Draw one detection record of cfg.M shots for the given replication.

    Per shot: sign +1 or -1 with probability 1/2 (the unknown transmitted
    bit), then a phase-noise offset if gamma > 0, then the Poisson count.
    Identical (cfg, replication), an integer >= 0, gives the identical record.
    """
    return CountRecord(counts=_draw_record(cfg, _whole("replication", replication, 0)))


def run_discrimination(cfg: SimConfig, bits: Sequence[int]) -> DiscriminationResult:
    """Simulate shot-by-shot bit discrimination for a known transmitted bit string.

    The per-shot sign is fixed by the bit (1 -> +, 0 -> -) instead of being
    drawn; the decision rule is on/off (count > 0 means bit 1).  ``bits`` holds
    cfg.M integers 0 or 1.  Returns the empirical error rate with its binomial
    standard error.
    """
    bits = _whole("bits", bits, 0, 1, array=True)
    if bits.shape != (cfg.M,):
        raise ValueError(f"got bits of shape {bits.shape} for M={cfg.M} shots")
    plus = bits == 1
    counts = _draw_counts(stream(cfg.seed), cfg.amps, cfg.phi_star, cfg.gamma, plus)
    n_err = int(np.count_nonzero((counts > 0) != plus))
    rate = n_err / cfg.M
    return DiscriminationResult(
        error_rate=rate,
        std_error=math.sqrt(rate * (1.0 - rate) / cfg.M),
        n_errors=n_err,
        sample_size=cfg.M,
    )


def run_convergence_sweeps(
    cfg: SimConfig,
    methods: Sequence[str],
    m_list: Sequence[int] = DEFAULT_M_LIST,
    grid: PhaseGrid | None = None,
) -> tuple[SweepResult, ...]:
    """Estimator benchmark over growing sample sizes, cfg.replications runs each.

    Every (M, replication) pair draws one independent record and keeps only
    its histogram, a dense row of occurrences of the counts 0..cap; the rows
    of one M go in blocks of at most ``estimation._BLOCK_CELLS // max(cap +
    1, grid.size)``, and every method in ``methods`` estimates a whole block
    at once (:func:`estimation.bayes_estimates`,
    :func:`estimation.fano_inversion_estimates`), logging each replication's
    point estimate and variance.  A method's rows aggregate the
    ensemble mean ratio to phi_star, the spread of the estimates, the mean
    reported variance and the CRLB reference 1/(M*F) at phi_star.  phi_star
    enters both as its representative in [0, pi/2], where the estimates lie
    (:func:`estimation.fold_phase`); that must be nonzero.  ``m_list`` holds
    integers >= 1.  Results come back in the order of ``methods``.
    """
    methods = tuple(methods)
    if not methods:
        raise ValueError(f"no method given; expected some of {METHODS}")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    m_values = [_whole("m_list entry", m, 1) for m in m_list]
    if not m_values or any(m2 <= m1 for m1, m2 in zip(m_values, m_values[1:])):
        raise ValueError("m_list must be non-empty and strictly increasing")
    if grid is None:
        grid = PhaseGrid()
    phi_true = estimation.fold_phase(cfg.phi_star)
    if phi_true == 0.0:
        raise ValueError("phi_star must not fold to 0 to report estimate/truth ratios")

    kinds = [_METHOD_KINDS[m] for m in methods]
    fisher_refs = [getattr(estimation, f"fisher_{k}")(cfg.amps, phi_true, cfg.gamma) for k in kinds]
    reps = cfg.replications
    estimates = np.empty((len(methods), len(m_values), reps))
    variances = np.empty((len(methods), len(m_values), reps))
    # one dense row of occurrences of the counts 0..cap per record
    cap = _count_cap(cfg.amps)
    values = np.arange(cap + 1)
    step = max(1, estimation._BLOCK_CELLS // max(cap + 1, grid.size))
    for i, m in enumerate(m_values):
        cfg_m = replace(cfg, M=m)
        for start in range(0, reps, step):
            block = slice(start, min(start + step, reps))
            occupancy = np.empty((block.stop - start, cap + 1), dtype=np.int64)
            for row, rep in enumerate(range(start, block.stop)):
                occupancy[row] = np.bincount(_draw_record(cfg_m, rep), minlength=cap + 1)
            for j, (method, kind) in enumerate(zip(methods, kinds)):
                if method == "fano-inversion":
                    mean, var, _ = estimation.fano_inversion_estimates(
                        values, occupancy, cfg.amps, cfg.gamma
                    )
                else:
                    mean, var = estimation.bayes_estimates(
                        values, occupancy, cfg.amps, cfg.gamma, grid, kind
                    )
                estimates[j, i, block], variances[j, i, block] = mean, var

    results = []
    for j, (method, fisher_ref) in enumerate(zip(methods, fisher_refs)):
        rows = tuple(
            SweepRow(
                M=m,
                mean_ratio=float(estimates[j, i].mean() / phi_true),
                sd_of_estimates=float(estimates[j, i].std(ddof=1)) if reps > 1 else 0.0,
                mean_variance=float(variances[j, i].mean()),
                crlb=estimation.crlb_variance(fisher_ref, m),
            )
            for i, m in enumerate(m_values)
        )
        results.append(
            SweepResult(
                method=method,
                rows=rows,
                estimates=estimates[j],
                variances=variances[j],
            )
        )
    return tuple(results)


def run_convergence_sweep(
    cfg: SimConfig,
    method: str,
    m_list: Sequence[int] = DEFAULT_M_LIST,
    grid: PhaseGrid | None = None,
) -> SweepResult:
    """:func:`run_convergence_sweeps` for a single estimator ``method``."""
    return run_convergence_sweeps(cfg, (method,), m_list, grid)[0]


def _chi2_sf(dof: int, x: float) -> float:
    """P(X > x) for X chi-square on ``dof`` degrees of freedom: Q(dof/2, x/2), the upper
    regularized gamma function, as a finite series in y = x/2.  It is erfc(sqrt(y)) for odd
    ``dof`` plus e^-y y^s / Gamma(s + 1) over s = dof/2 - 1, dof/2 - 2, ... >= 0; 1 at x = 0."""
    if x == 0.0:
        return 1.0
    s = 0.5 * np.arange(dof % 2, dof - 1, 2)
    ln_terms = s * math.log(0.5 * x) - 0.5 * x - np.array([math.lgamma(v + 1.0) for v in s])
    return float(np.exp(ln_terms).sum()) + (math.erfc(math.sqrt(0.5 * x)) if dof % 2 else 0.0)


def goodness_of_fit(record: CountRecord, pmf: PhotonPmf) -> GofResult:
    """Pearson chi-square test of a count record against a model pmf.

    Adjacent photon-number bins are pooled left to right until each pooled
    bin expects at least 5 counts; whatever remains (including the analytic
    tail above the cutoff) merges into the last bin.  Needs M >= 50 and at
    least two pooled bins.  The observed side is the record's sparse
    histogram, so memory follows the pmf cutoff, not the largest count.
    The p-value is the chi-square survival function, in closed form (:func:`_chi2_sf`).
    """
    m_total = record.sample_size
    if m_total < 50:
        raise ValueError(f"goodness of fit needs at least 50 samples, got {m_total}")
    values, occurrences = record.histogram
    inside = values < pmf.probs.size
    observed = np.zeros(pmf.probs.size, dtype=np.int64)
    observed[values[inside]] = occurrences[inside]
    expected_full = m_total * pmf.probs

    obs_bins: list[float] = []
    exp_bins: list[float] = []
    acc_o = 0.0
    acc_e = 0.0
    for n in range(pmf.probs.size):
        acc_o += float(observed[n])
        acc_e += float(expected_full[n])
        if acc_e >= _MIN_EXPECTED_PER_BIN:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
            acc_o = 0.0
            acc_e = 0.0
    # remainder: mass above the last closed bin, plus the model tail and any
    # observed counts beyond the pmf cutoff
    acc_o += float(occurrences[~inside].sum())
    acc_e += m_total * pmf.tail_bound
    if not obs_bins:
        raise InsufficientSupportError("expected counts cannot fill a single bin")
    obs_bins[-1] += acc_o
    exp_bins[-1] += acc_e
    if len(obs_bins) < 2:
        raise InsufficientSupportError(
            "need at least two pooled bins with expected count >= 5"
        )

    obs = np.asarray(obs_bins)
    exp = np.asarray(exp_bins)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(obs_bins) - 1
    return GofResult(statistic=stat, p_value=_chi2_sf(dof, stat))
