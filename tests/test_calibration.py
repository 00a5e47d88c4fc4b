"""Calibration of sampler, likelihood and posterior together.

Under draws of phi* from the prior, the posterior of the record it generated
satisfies E[(phi* - posterior mean)^2] = E[posterior variance]: the mean
squared error of the posterior mean is the expected posterior variance; and
the posterior CDF at phi* is uniform on [0, 1].  A sampler, likelihood or
posterior that disagree with one another break both, whatever the phase.
The draws are fixed by their seeds.
"""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from kennedyrx.estimation import (
    PhaseGrid,
    bayes_estimates,
    log_likelihood_onoff,
    log_likelihood_pnr,
    posterior,
)
from kennedyrx.montecarlo import SimConfig, _count_cap, sample_counts, stream
from kennedyrx.photonstats import DetectorPlaneAmplitudes

DRAWS = 400
SHOTS = 300
# |z| of the mean difference: 4 sigma fires by chance about once in 16000
# runs, and at these seeds |z| stays below 1.6
Z_BOUND = 4.0


@pytest.mark.parametrize("kind", ["pnr", "onoff"])
@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_batch_posterior_variance_matches_the_squared_error(kind, gamma):
    amps = DetectorPlaneAmplitudes(a=math.sqrt(2.0), b=math.sqrt(2.0))
    phis = stream(31).random(DRAWS) * (math.pi / 2)  # the uniform prior on [0, pi/2]
    cap = _count_cap(amps)
    configs = [SimConfig(amps=amps, phi_star=phi, M=SHOTS, seed=32, gamma=gamma) for phi in phis]
    occupancy = np.array([
        np.bincount(sample_counts(cfg, i).counts, minlength=cap + 1)
        for i, cfg in enumerate(configs)
    ])
    means, variances = bayes_estimates(
        np.arange(cap + 1), occupancy, amps, gamma, PhaseGrid(), kind
    )
    diff = (phis - means) ** 2 - variances
    z = diff.mean() / (diff.std(ddof=1) / math.sqrt(DRAWS))
    assert abs(z) < Z_BOUND


# Simulation-based calibration (SBC; Talts et al. 2018, arXiv:1804.06788):
# for phi* drawn from the prior and a record drawn at phi*, the posterior
# CDF at phi* is uniform on [0, 1] exactly when sampler, likelihood and
# posterior agree.  A KS test of these ranks against U(0, 1) checks that.
# The draws are fixed by their seeds: at them the smallest p-value is 0.12,
# and with the sampler's log-space rule switched off (exp(-nu) underflows and
# stalls the recurrence above nu ~ 700) the a = b = 14 case gives p = 3e-15.
SBC_P_FLOOR = 1e-3


def _sbc_ranks(a, kind, gamma, shots, draws, seed):
    amps = DetectorPlaneAmplitudes(a=a, b=a)
    grid = PhaseGrid()
    pts = grid.points
    loglik = log_likelihood_pnr if kind == "pnr" else log_likelihood_onoff
    phis = stream(seed).random(draws) * (math.pi / 2)  # the uniform prior on [0, pi/2]
    ranks = np.empty(draws)
    for i, phi in enumerate(phis):
        record = sample_counts(SimConfig(amps=amps, phi_star=phi, M=shots, seed=seed + 1, gamma=gamma), i)
        density = posterior(loglik(record, amps, gamma, grid), grid).density
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(pts))])
        ranks[i] = np.interp(phi, pts, cdf)
    return ranks


@pytest.mark.parametrize(
    "a,kind,gamma,shots,draws",
    [
        (math.sqrt(2.0), "pnr", 0.0, 300, 600),
        (math.sqrt(2.0), "onoff", 0.0, 300, 600),
        (math.sqrt(2.0), "pnr", 0.5, 300, 600),
        (math.sqrt(2.0), "onoff", 0.5, 300, 600),
        # nu+ up to 784 and up to 1600: the sampler's log-space terms
        (14.0, "pnr", 0.0, 30, 150),
        (20.0, "pnr", 0.0, 30, 150),
    ],
)
def test_posterior_cdf_at_the_true_phase_is_uniform(a, kind, gamma, shots, draws):
    ranks = _sbc_ranks(a, kind, gamma, shots, draws, seed=40)
    assert kstest(ranks, "uniform").pvalue > SBC_P_FLOOR
