"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Heavy simulations are shared through module-scoped fixtures; every
tolerance is fixed here, nothing is calibrated at run time.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import kstest

import helpers
from kennedyrx.estimation import (
    PhaseGrid,
    bayes_estimate,
    fisher_onoff,
    fisher_pnr,
    log_likelihood_pnr,
    posterior,
    sequential_update,
    uniform_posterior,
)
from kennedyrx.montecarlo import (
    DEFAULT_M_LIST,
    SimConfig,
    goodness_of_fit,
    run_convergence_sweep,
    run_discrimination,
    sample_counts,
    stream,
)
from kennedyrx.photonstats import (
    DetectorPlaneAmplitudes,
    PhotonPmf,
    fano_factor,
    photon_pmf,
    photon_pmf_dphi,
    pmf_fidelity,
)
from kennedyrx.receiver import error_probability, helstrom_bound

SEED = 20250811
SQRT2 = math.sqrt(2.0)
SWEEP_AMPS = DetectorPlaneAmplitudes(a=SQRT2, b=SQRT2)
EXP_AMPS = DetectorPlaneAmplitudes(a=1.12, b=0.79)
GRID = PhaseGrid()
M_AT_10K = DEFAULT_M_LIST.index(10_000)


def report(num: int, ok: bool, text: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def timings():
    return {}


@pytest.fixture(scope="module")
def sweep_pnr(timings):
    cfg = SimConfig(amps=SWEEP_AMPS, phi_star=0.3, M=30_000, seed=SEED, replications=50)
    start = time.perf_counter()
    result = run_convergence_sweep(cfg, "bayes-pnr", DEFAULT_M_LIST)
    timings["sweep_pnr"] = time.perf_counter() - start
    return result


@pytest.fixture(scope="module")
def sweep_m4(timings, sweep_pnr):
    """M = 10^4 ensembles for the three methods (pnr reuses the full sweep)."""
    cfg = SimConfig(amps=SWEEP_AMPS, phi_star=0.3, M=10_000, seed=SEED, replications=50)
    start = time.perf_counter()
    out = {
        "bayes-pnr": sweep_pnr,
        "bayes-onoff": run_convergence_sweep(cfg, "bayes-onoff", (10_000,)),
        "fano-inversion": run_convergence_sweep(cfg, "fano-inversion", (10_000,)),
    }
    timings["sweep_m4"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="module")
def sweep_m4_noisy(timings):
    cfg = SimConfig(
        amps=SWEEP_AMPS, phi_star=0.3, M=10_000, seed=SEED, gamma=math.pi / 4, replications=50
    )
    start = time.perf_counter()
    out = {
        "bayes-pnr": run_convergence_sweep(cfg, "bayes-pnr", (10_000,)),
        "bayes-onoff": run_convergence_sweep(cfg, "bayes-onoff", (10_000,)),
    }
    timings["sweep_m4_noisy"] = time.perf_counter() - start
    return out


def _row_at_10k(result):
    for row in result.rows:
        if row.M == 10_000:
            return row
    raise AssertionError("no M=10^4 row")


def test_criterion_01_error_probability_reproduction():
    start = time.perf_counter()
    cfg = SimConfig(amps=DetectorPlaneAmplitudes(1.0, 1.0), phi_star=0.0, M=100_000, seed=SEED)
    bits = stream(SEED, 1).integers(0, 2, size=cfg.M)
    result = run_discrimination(cfg, bits)
    elapsed = time.perf_counter() - start
    expected = 0.5 * math.exp(-4.0)
    sigma = math.sqrt(expected * (1.0 - expected) / cfg.M)
    deviation = abs(result.error_rate - expected)
    ok = deviation <= 3.0 * sigma and elapsed < 5.0
    report(
        1,
        ok,
        f"empirical error {result.error_rate:.6f} vs exp(-4)/2 = {expected:.6f} "
        f"({deviation / sigma:.2f} binomial sigma, {elapsed:.2f}s)",
    )


def test_criterion_02_helstrom_factor_of_two():
    betas = (2.0, 2.5, 3.0, 5.0, 8.0)
    ratios = [error_probability(b, 0.0) / helstrom_bound(b) for b in betas]
    ok = all(1.98 <= r <= 2.02 for r in ratios)
    report(
        2,
        ok,
        "error/Helstrom ratios "
        + ", ".join(f"{b:g}:{r:.4f}" for b, r in zip(betas, ratios))
        + " all in [1.98, 2.02]",
    )


def test_criterion_03_fisher_zeros_and_ordering():
    start = time.perf_counter()
    param_sets = [(x, x) for x in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)] + [(1.12, 0.79)]
    phis = np.linspace(0.0, math.pi / 2, 500)
    worst_zero = 0.0
    worst_gap = -math.inf
    for a, b in param_sets:
        amps = DetectorPlaneAmplitudes(a, b)
        for phi in (0.0, math.pi / 2):
            worst_zero = max(worst_zero, fisher_pnr(amps, phi), fisher_onoff(amps, phi))
        f_pnr = np.array([fisher_pnr(amps, p) for p in phis])
        f_off = np.array([fisher_onoff(amps, p) for p in phis])
        worst_gap = max(worst_gap, float(np.max(f_off - f_pnr)))
    elapsed = time.perf_counter() - start
    ok = worst_zero < 1e-9 and worst_gap <= 1e-12 and elapsed < 10.0
    report(
        3,
        ok,
        f"endpoint FI max {worst_zero:.2e} < 1e-9; max(F_onoff - F_pnr) = {worst_gap:.2e} "
        f"<= 1e-12 on 500-point grids ({elapsed:.2f}s)",
    )


def test_criterion_04_asymptotic_optimality(sweep_m4, timings):
    checks = []
    for method in ("bayes-pnr", "bayes-onoff"):
        row = _row_at_10k(sweep_m4[method])
        checks.append((method, row.mean_variance / row.crlb))
    elapsed = timings["sweep_pnr"] + timings["sweep_m4"]
    ok = all(0.8 <= ratio <= 1.3 for _, ratio in checks) and elapsed < 120.0
    report(
        4,
        ok,
        "mean Var/CRLB at M=10^4: "
        + ", ".join(f"{m}={r:.3f}" for m, r in checks)
        + f" in [0.8, 1.3] over 50 replications ({elapsed:.1f}s)",
    )


def test_criterion_05_convergence_speed(sweep_pnr, timings):
    ratios = {row.M: row.mean_ratio for row in sweep_pnr.rows if row.M >= 1000}
    ok = all(0.97 <= r <= 1.03 for r in ratios.values())
    ok = ok and timings["sweep_pnr"] < 120.0
    report(
        5,
        ok,
        "bayes-pnr mean ratio phi_bar/phi*: "
        + ", ".join(f"M={m}:{r:.4f}" for m, r in sorted(ratios.items()))
        + f" all in [0.97, 1.03] ({timings['sweep_pnr']:.1f}s)",
    )


def test_criterion_06_method_ordering(sweep_m4):
    spreads = {}
    for method, result in sweep_m4.items():
        i = result.m_list.index(10_000)
        spreads[method] = float(result.estimates[i].std(ddof=1))
    ok = spreads["fano-inversion"] > spreads["bayes-onoff"] > spreads["bayes-pnr"]
    report(
        6,
        ok,
        f"estimator spread at M=10^4: fano {spreads['fano-inversion']:.5f} > "
        f"onoff {spreads['bayes-onoff']:.5f} > pnr {spreads['bayes-pnr']:.5f}",
    )


def test_criterion_07_noise_robustness(sweep_m4, sweep_m4_noisy):
    details = []
    ok = True
    for method in ("bayes-pnr", "bayes-onoff"):
        noisy = sweep_m4_noisy[method]
        i = noisy.m_list.index(10_000)
        estimates = noisy.estimates[i]
        se = estimates.std(ddof=1) / math.sqrt(estimates.size)
        converged = abs(estimates.mean() - 0.3) <= 3.0 * se
        var_clean = _row_at_10k(sweep_m4[method]).mean_variance
        var_noisy = noisy.rows[i].mean_variance
        ok = ok and converged and var_noisy > var_clean
        details.append(
            f"{method}: |mean-phi*|={abs(estimates.mean() - 0.3):.5f} (<= {3*se:.5f}), "
            f"Var {var_noisy:.2e} > {var_clean:.2e}"
        )
    report(7, ok, "gamma=pi/4 vs 0 at M=10^4: " + "; ".join(details))


def test_criterion_08_experimental_regime_fidelity():
    cases = [(0.25, 0.0), (0.25, math.pi / 4), (math.pi / 4, 0.0), (math.pi / 4, math.pi / 2)]
    details = []
    ok = True
    for k, (phi_star, gamma) in enumerate(cases):
        cfg = SimConfig(amps=EXP_AMPS, phi_star=phi_star, M=100_000, seed=SEED, gamma=gamma)
        record = sample_counts(cfg, replication=k)
        post = posterior(log_likelihood_pnr(record, EXP_AMPS, gamma, GRID), GRID)
        phi_bar = bayes_estimate(post).mean
        if gamma == 0.0:
            theory = photon_pmf(EXP_AMPS, phi_bar)
        else:
            theory = photon_pmf(EXP_AMPS, phi_bar, gamma)
        fidelity = pmf_fidelity(theory, PhotonPmf.from_counts(record.counts))
        ok = ok and fidelity > 0.999
        details.append(f"phi*={phi_star:.4f},gamma={gamma:.4f}:F={fidelity:.6f}")
    report(8, ok, "histogram/model fidelity at M=10^5: " + "; ".join(details) + " all > 0.999")


def test_criterion_09_oracle_equivalences():
    # Fano closed form vs direct moment summation
    fano_err = 0.0
    for a, b, phi in [(1, 1, 0.0), (SQRT2, SQRT2, 0.3), (1.12, 0.79, 0.25)]:
        amps = DetectorPlaneAmplitudes(a, b)
        mean, var = helpers.moments_by_summation(photon_pmf(amps, phi).probs)
        fano_err = max(fano_err, abs(fano_factor(amps, phi) - var / mean))

    # analytic derivative vs central finite differences
    dphi_err = 0.0
    for gamma in (0.0, math.pi / 4):
        d = photon_pmf_dphi(SWEEP_AMPS, 0.3, gamma)
        if gamma == 0.0:
            fd = helpers.fd_dphi(lambda p: photon_pmf(SWEEP_AMPS, p).probs, 0.3)
        else:
            fd = helpers.fd_dphi(lambda p: photon_pmf(SWEEP_AMPS, p, gamma).probs, 0.3)
        dphi_err = max(dphi_err, float(np.max(np.abs(d - fd))))

    # batch vs streaming posterior on a 4000-shot record
    cfg = SimConfig(amps=EXP_AMPS, phi_star=0.25, M=4000, seed=SEED)
    record = sample_counts(cfg)
    streaming = uniform_posterior(GRID)
    for n in record.counts:
        streaming = sequential_update(streaming, int(n), EXP_AMPS, 0.0, detector_kind="pnr")
    batch = posterior(log_likelihood_pnr(record, EXP_AMPS, 0.0, GRID), GRID)
    stream_err = float(np.max(np.abs(streaming.density - batch.density)))

    # Gauss-Legendre noisy pmf vs 1e5-node midpoint rule
    noisy = photon_pmf(SWEEP_AMPS, 0.3, math.pi / 4)
    oracle = helpers.midpoint_noisy_pmf(
        SQRT2, SQRT2, 0.3, math.pi / 4, np.arange(noisy.n_max + 1)
    )
    quad_err = float(np.max(np.abs(noisy.probs - oracle)))

    ok = fano_err <= 1e-9 and dphi_err <= 1e-8 and stream_err <= 1e-10 and quad_err <= 1e-8
    report(
        9,
        ok,
        f"fano vs moments {fano_err:.2e} <= 1e-9; dphi vs FD {dphi_err:.2e} <= 1e-8; "
        f"batch vs streaming {stream_err:.2e} <= 1e-10; quadrature vs midpoint "
        f"{quad_err:.2e} <= 1e-8",
    )


def test_criterion_10_sampler_calibration():
    start = time.perf_counter()
    cfg = SimConfig(amps=SWEEP_AMPS, phi_star=0.3, M=4000, seed=SEED, replications=1000)
    pmf = photon_pmf(SWEEP_AMPS, 0.3)
    p_values = np.array(
        [
            goodness_of_fit(sample_counts(cfg, replication=rep), pmf).p_value
            for rep in range(1000)
        ]
    )
    ks = float(kstest(p_values, "uniform").statistic)
    failures = int(np.sum(p_values < 1e-3))
    elapsed = time.perf_counter() - start
    ok = ks < 0.06 and failures <= 5
    report(
        10,
        ok,
        f"GOF p-values over 1000 seeded runs: KS distance {ks:.4f} < 0.06, "
        f"{failures} runs below alpha=1e-3 ({elapsed:.1f}s)",
    )
