"""Seeded simulation of detection records and estimator benchmarking.

Records are drawn from the exact receiver model: each shot picks one of the
two encoded signs with probability 1/2, optionally a uniform phase-noise
offset, and then a Poisson photon count with the corresponding mean, drawn
by CDF inversion with a sequential search that only touches the shots it has
not yet decided.  Every experiment derives its generator from (seed, spawn
key), so replications are independent streams that can run in any order (or
in parallel) and still reproduce bit-for-bit.  A convergence sweep draws each
(M, replication) record once and keeps only its photon-count histogram, the
sufficient statistic, which every estimator it compares reads: the Bayes
estimators take the histograms of all replications of one M at once, so
the M-shot records are never held together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import chdtrc

from . import estimation, photonstats
from .estimation import CountRecord, OnOffRecord, PhaseGrid
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
    "to_onoff",
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


def _poisson_inversion(rng: np.random.Generator, nu: np.ndarray, cap: int) -> np.ndarray:
    """Poisson draws by CDF inversion with sequential search, one uniform per draw.

    Step k adds p_k = p_{k-1} * nu/k to the running CDF of every shot whose
    uniform it has not yet passed, and drops the shots it passes, so the
    work is O(M + sum of the counts).  Shots with a mean above
    ``_LOG_SPACE_MEAN`` take p_k from log space (k ln nu - nu - ln k!), where
    exp(-nu) would underflow and stall the recurrence at 0.  Independent of
    any library sampling algorithm, so records are stable across numpy
    versions.  Draws stop at ``cap``.
    """
    u = rng.random(nu.shape)
    out = np.zeros(nu.shape, dtype=np.int64)
    p0 = np.exp(-nu)
    idx = np.flatnonzero(u >= p0)
    term, cum, u, nu = p0[idx], p0[idx], u[idx], nu[idx]
    log_space = bool(np.any(nu > _LOG_SPACE_MEAN))
    k = 0
    while idx.size and k < cap:
        k += 1
        term *= nu / k
        if log_space:
            big = nu > _LOG_SPACE_MEAN
            term[big] = np.exp(photonstats._log_poisson_rows(nu[big], np.array([k]))[:, 0])
        cum += term
        out[idx] = k
        keep = u >= cum
        idx, term, cum, u, nu = idx[keep], term[keep], cum[keep], u[keep], nu[keep]
    return out


def _draw_counts(
    rng: np.random.Generator,
    amps: DetectorPlaneAmplitudes,
    phi: float,
    gamma: float,
    signs: np.ndarray,
) -> np.ndarray:
    a, b = amps.a, amps.b
    if gamma > 0.0:
        psi = rng.uniform(-0.5 * gamma, 0.5 * gamma, size=signs.size)
        cos_term = np.cos(phi - psi)
    else:
        cos_term = math.cos(phi)
    nu = np.maximum(a * a + b * b + signs * (2.0 * a * b) * cos_term, 0.0)
    return _poisson_inversion(rng, nu, cap=photonstats.default_cutoff(amps) + 64)


def sample_counts(cfg: SimConfig, replication: int = 0) -> CountRecord:
    """Draw one detection record of cfg.M shots for the given replication.

    Per shot: sign +1 or -1 with probability 1/2 (the unknown transmitted
    bit), then a phase-noise offset if gamma > 0, then the Poisson count.
    Identical (cfg, replication) always gives the identical record.
    """
    rng = stream(cfg.seed, cfg.M, replication)
    signs = np.where(rng.random(cfg.M) < 0.5, 1.0, -1.0)
    counts = _draw_counts(rng, cfg.amps, cfg.phi_star, cfg.gamma, signs)
    return CountRecord(counts=counts)


def to_onoff(record: CountRecord) -> OnOffRecord:
    """Coarse-grain a count record to on/off events."""
    _, _, ((m_off, m_on),) = estimation._bins([record.histogram], "onoff")
    return OnOffRecord(m_on=int(m_on), m_off=int(m_off))


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
    signs = np.where(bits_arr == 1, 1.0, -1.0)
    counts = _draw_counts(rng, cfg.amps, cfg.phi_star, cfg.gamma, signs)
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
