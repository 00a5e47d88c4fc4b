"""Calibration of sampler, likelihood and posterior together.

Under draws of phi* from the prior, the posterior of the record it generated
satisfies E[(phi* - posterior mean)^2] = E[posterior variance]: the mean
squared error of the posterior mean is the expected posterior variance.  A
sampler, likelihood or posterior that disagree with one another break this
identity, whatever the phase.  The draws are fixed by their seeds.
"""

import math

import numpy as np
import pytest

from kennedyrx.estimation import PhaseGrid, bayes_estimates
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
