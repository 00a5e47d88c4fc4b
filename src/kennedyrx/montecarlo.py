"""Seeded simulation of detection records and estimator benchmarking.

Records are drawn from the exact receiver model: each shot picks one of the
two encoded signs with probability 1/2, optionally a uniform phase-noise
offset, and then a Poisson photon count with the corresponding mean, drawn
by CDF inversion.  Without phase noise every shot has one of two means, so
the CDFs of both are tabulated once per configuration and each shot is
looked up through a guide table; with phase noise every shot has its own
mean, and a sequential search runs over the shots it has not yet decided.
Both paths form the CDF with the same arithmetic, so they draw the same
count from the same uniform.  Every experiment derives its generator from
(seed, spawn key), so replications are independent streams that can run in
any order (or in parallel) and still reproduce bit-for-bit.  A convergence
sweep draws each (M, replication) record once and keeps only its
photon-count histogram, the sufficient statistic, which every estimator it
compares reads: the Bayes estimators take the histograms of all
replications of one M at once, so the M-shot records are never held
together.  On/off detection reads the same count record as PNR detection,
through its coarse-graining {0}, {n >= 1}, so no record is converted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import chdtrc

from . import estimation, photonstats
from .estimation import CountRecord, PhaseGrid
from .photonstats import DetectorPlaneAmplitudes, PhotonPmf
from .receiver import ReceiverParams, detector_amplitudes

__all__ = [
    "SimConfig",
    "SweepRow",
    "SweepResult",
    "DiscriminationResult",
    "GofResult",
    "InsufficientSupportError",
    "stream",
    "sample_counts",
    "run_discrimination",
    "run_convergence_sweep",
    "run_convergence_sweeps",
    "goodness_of_fit",
    "DEFAULT_M_LIST",
    "METHODS",
]

# Default sweep sample sizes: two and a half decades, log-spaced.
DEFAULT_M_LIST = (100, 300, 1000, 3000, 10000, 30000)

# The estimators a convergence sweep compares.
METHODS = ("bayes-pnr", "bayes-onoff", "fano-inversion")

_MIN_EXPECTED_PER_BIN = 5.0


class InsufficientSupportError(ValueError):
    """Raised when a goodness-of-fit test cannot form at least two bins."""


@dataclass(frozen=True)
class SimConfig:
    """One simulated experiment: who measures what, how often, and from which seed."""

    amps: DetectorPlaneAmplitudes
    phi_star: float
    M: int
    seed: int
    gamma: float = 0.0
    replications: int = 50

    def __post_init__(self) -> None:
        if isinstance(self.amps, ReceiverParams):
            object.__setattr__(self, "amps", detector_amplitudes(self.amps))
        if not isinstance(self.amps, DetectorPlaneAmplitudes):
            raise ValueError("amps must be DetectorPlaneAmplitudes or ReceiverParams")
        if int(self.M) < 1:
            raise ValueError(f"M must be >= 1, got {self.M!r}")
        if int(self.replications) < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "phi_star", float(self.phi_star))
        object.__setattr__(self, "gamma", float(self.gamma))


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
    m_list: tuple[int, ...]
    estimates: np.ndarray  # (len(m_list), replications)
    variances: np.ndarray  # (len(m_list), replications)


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


# Above this mean exp(-nu) nears the double-precision underflow (~708), so
# the search takes each term from log space instead of the recurrence.
_LOG_SPACE_MEAN = 700.0


def _next_terms(term: np.ndarray, nu: np.ndarray, k: int) -> None:
    """Advance the Poisson terms p_{k-1} of the means ``nu`` to p_k, in place.

    p_k = p_{k-1} * nu/k, except for means above ``_LOG_SPACE_MEAN``, which
    take p_k from log space (k ln nu - nu - ln k!): there exp(-nu) underflows
    and would stall the recurrence at 0.
    """
    term *= nu / k
    big = nu > _LOG_SPACE_MEAN
    if big.any():
        term[big] = np.exp(photonstats._log_poisson_rows(nu[big], np.array([k]))[:, 0])


def _poisson_inversion(rng: np.random.Generator, nu: np.ndarray, cap: int) -> np.ndarray:
    """Poisson draws by CDF inversion with sequential search, one uniform per draw.

    The sampler for records with phase noise, where every shot has its own
    mean.  Step k adds p_k (:func:`_next_terms`) to the running CDF of every
    shot whose uniform it has not yet passed, and drops the shots it passes,
    so the work is O(M + sum of the counts): in effect a per-shot CDF table
    built only as far as each shot needs it.  Independent of any library
    sampling algorithm, so records are stable across numpy versions.  Draws
    stop at ``cap``.  Records without phase noise take :func:`_cdf_lookup`,
    which returns what this search returns on the same uniforms.
    """
    u = rng.random(nu.shape)
    out = np.zeros(nu.shape, dtype=np.int64)
    p0 = np.exp(-nu)
    idx = np.flatnonzero(u >= p0)
    term, cum, u, nu = p0[idx], p0[idx], u[idx], nu[idx]
    k = 0
    while idx.size and k < cap:
        k += 1
        _next_terms(term, nu, k)
        cum += term
        out[idx] = k
        keep = u >= cum
        idx, term, cum, u, nu = idx[keep], term[keep], cum[keep], u[keep], nu[keep]
    return out


@lru_cache(maxsize=16)
def _cdf_table(means: tuple[float, ...], cap: int) -> tuple[np.ndarray, np.ndarray]:
    """CDF rows of the Poisson ``means`` for k = 0..cap, and their guide table.

    Row j holds the running sums the sequential search of
    :func:`_poisson_inversion` forms for a shot of mean means[j], by the same
    arithmetic, then an inf sentinel: cap + 2 entries per row, returned
    flattened.  The guide has L buckets per row, L the smallest power of two
    >= 2 (cap + 1); bucket i of row j holds the number of entries of row j
    <= i/L.  A power of two keeps u * L exact, so floor(u * L) never rounds a
    uniform into the bucket above its own, whose start could overshoot it.
    Both arrays are read-only; the table depends on the means and cap alone,
    so one table serves every record of a configuration.
    """
    nu = np.array(means)
    rows = np.empty((nu.size, cap + 2))
    term = np.exp(-nu)
    cum = term.copy()
    rows[:, 0] = cum
    for k in range(1, cap + 1):
        _next_terms(term, nu, k)
        cum += term
        rows[:, k] = cum
    rows[:, -1] = np.inf
    n_buckets = 1 << (2 * cap + 1).bit_length()
    edges = np.arange(n_buckets) / n_buckets
    guide = np.concatenate([np.searchsorted(row, edges, side="right") for row in rows])
    flat = rows.ravel()
    flat.setflags(write=False)
    guide.setflags(write=False)
    return flat, guide


def _cdf_lookup(u: np.ndarray, row: np.ndarray, means: tuple[float, ...], cap: int) -> np.ndarray:
    """Poisson draws by CDF inversion from the table of :func:`_cdf_table`.

    Shot i has mean means[row[i]] (``row`` of dtype intp, so the flat
    offsets cannot overflow) and uniform u[i].  Each shot starts at the guide
    entry of its bucket and steps up while its uniform reaches the next CDF
    entry, which gives the number of entries <= u: the count at which the
    sequential search stops.  Draws stop at ``cap``.
    """
    flat, guide = _cdf_table(means, cap)
    n_buckets = guide.size // len(means)
    out = guide[row * n_buckets + (u * n_buckets).astype(np.intp)]
    base = row * (cap + 2)
    step = np.flatnonzero(u >= flat[base + out])
    while step.size:
        out[step] += 1
        step = step[u[step] >= flat[base[step] + out[step]]]
    return np.minimum(out, cap)


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
    a, b = amps.a, amps.b
    cap = photonstats.default_cutoff(amps) + 64
    if gamma > 0.0:
        psi = rng.uniform(-0.5 * gamma, 0.5 * gamma, size=plus.size)
        signs = np.where(plus, 1.0, -1.0)
        nu = np.maximum(a * a + b * b + signs * (2.0 * a * b) * np.cos(phi - psi), 0.0)
        return _poisson_inversion(rng, nu, cap)
    s, x = a * a + b * b, 2.0 * a * b * math.cos(phi)
    means = (max(s - x, 0.0), max(s + x, 0.0))
    return _cdf_lookup(rng.random(plus.size), plus.astype(np.intp), means, cap)


def sample_counts(cfg: SimConfig, replication: int = 0) -> CountRecord:
    """Draw one detection record of cfg.M shots for the given replication.

    Per shot: sign +1 or -1 with probability 1/2 (the unknown transmitted
    bit), then a phase-noise offset if gamma > 0, then the Poisson count.
    Identical (cfg, replication) always gives the identical record.
    """
    rng = stream(cfg.seed, cfg.M, replication)
    counts = _draw_counts(rng, cfg.amps, cfg.phi_star, cfg.gamma, rng.random(cfg.M) < 0.5)
    return CountRecord(counts=counts)


def run_discrimination(cfg: SimConfig, bits: Sequence[int]) -> DiscriminationResult:
    """Simulate shot-by-shot bit discrimination for a known transmitted bit string.

    The per-shot sign is fixed by the bit (1 -> +, 0 -> -) instead of being
    drawn; the decision rule is on/off (count > 0 means bit 1).  Returns the
    empirical error rate with its binomial standard error.
    """
    bits_arr = np.asarray(bits)
    if bits_arr.size != cfg.M:
        raise ValueError(f"got {bits_arr.size} bits for M={cfg.M} shots")
    if bits_arr.size and not np.isin(bits_arr, (0, 1)).all():
        raise ValueError("bits must be 0 or 1")
    rng = stream(cfg.seed)
    counts = _draw_counts(rng, cfg.amps, cfg.phi_star, cfg.gamma, bits_arr == 1)
    decided = (counts > 0).astype(bits_arr.dtype)
    n_err = int(np.count_nonzero(decided != bits_arr))
    rate = n_err / cfg.M
    return DiscriminationResult(
        error_rate=rate,
        std_error=math.sqrt(rate * (1.0 - rate) / cfg.M),
        n_errors=n_err,
        sample_size=cfg.M,
    )


_BAYES_KINDS = {"bayes-pnr": "pnr", "bayes-onoff": "onoff"}


def _reference_fisher(method: str, amps, phi: float, gamma: float) -> float:
    # the Fano route consumes the full photon statistics, so its data bound
    # is the PNR information
    if method == "bayes-onoff":
        return estimation.fisher_onoff(amps, phi, gamma)
    return estimation.fisher_pnr(amps, phi, gamma)


def run_convergence_sweeps(
    cfg: SimConfig,
    methods: Sequence[str],
    m_list: Sequence[int] = DEFAULT_M_LIST,
    grid: PhaseGrid | None = None,
) -> tuple[SweepResult, ...]:
    """Estimator benchmark over growing sample sizes, cfg.replications runs each.

    Every (M, replication) pair draws one independent record and keeps only
    its histogram (:attr:`CountRecord.histogram`), which every method in
    ``methods`` then estimates from; each logs its point estimate and
    variance.  The Bayes methods estimate all replications of one M at once
    (:func:`estimation.bayes_estimates`).  A method's rows aggregate the
    ensemble mean ratio to phi_star, the spread of the estimates, the mean
    reported variance and the CRLB reference 1/(M*F) at phi_star.  phi_star
    enters both as its representative in [0, pi/2], where the estimates lie
    (:func:`estimation.fold_phase`); that must be nonzero.  Results come
    back in the order of ``methods``.
    """
    methods = tuple(methods)
    if not methods:
        raise ValueError(f"no method given; expected some of {METHODS}")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    m_values = [int(m) for m in m_list]
    if not m_values or any(m2 <= m1 for m1, m2 in zip(m_values, m_values[1:])):
        raise ValueError("m_list must be non-empty and strictly increasing")
    if grid is None:
        grid = PhaseGrid()
    phi_true = estimation.fold_phase(cfg.phi_star)
    if phi_true == 0.0:
        raise ValueError("phi_star must not fold to 0 to report estimate/truth ratios")

    fisher_refs = [_reference_fisher(m, cfg.amps, phi_true, cfg.gamma) for m in methods]
    reps = cfg.replications
    estimates = np.empty((len(methods), len(m_values), reps))
    variances = np.empty((len(methods), len(m_values), reps))
    for i, m in enumerate(m_values):
        cfg_m = replace(cfg, M=m)
        histograms, fano = [], []
        for rep in range(reps):
            record = sample_counts(cfg_m, replication=rep)
            histograms.append(record.histogram)
            if "fano-inversion" in methods:
                fano.append(estimation.fano_inversion_estimate(record, cfg.amps))
        for j, method in enumerate(methods):
            if method == "fano-inversion":
                ests = fano
            else:
                ests = estimation.bayes_estimates(
                    histograms, cfg.amps, cfg.gamma, grid, _BAYES_KINDS[method]
                )
            estimates[j, i] = [est.mean for est in ests]
            variances[j, i] = [est.variance for est in ests]

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
                m_list=tuple(m_values),
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


def goodness_of_fit(record: CountRecord, pmf: PhotonPmf) -> GofResult:
    """Pearson chi-square test of a count record against a model pmf.

    Adjacent photon-number bins are pooled left to right until each pooled
    bin expects at least 5 counts; whatever remains (including the analytic
    tail above the cutoff) merges into the last bin.  Needs M >= 50 and at
    least two pooled bins.  The observed side is the record's sparse
    histogram, so memory follows the pmf cutoff, not the largest count.
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
    return GofResult(statistic=stat, p_value=float(chdtrc(dof, stat)))
