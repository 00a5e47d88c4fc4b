"""Kennedy-like BPSK receiver simulator with real-time Bayesian phase monitoring.

The same photon-detection record used to discriminate the transmitted bits is
processed to estimate the signal/LO relative phase, for on/off and
photon-number-resolving detection, with or without uniform phase noise.
"""

from .estimation import (
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
    fano_inversion_estimates,
    fisher_onoff,
    fisher_pnr,
    fold_phase,
    invert_fano,
    log_likelihood_onoff,
    log_likelihood_pnr,
    posterior,
    sequential_update,
    uniform_posterior,
)
from .montecarlo import (
    DiscriminationResult,
    GofResult,
    InsufficientSupportError,
    SimConfig,
    SweepResult,
    SweepRow,
    goodness_of_fit,
    run_convergence_sweep,
    run_convergence_sweeps,
    run_discrimination,
    sample_counts,
    stream,
)
from .photonstats import (
    DetectorPlaneAmplitudes,
    PhotonPmf,
    default_cutoff,
    fano_factor,
    nu_plus_minus,
    photon_pmf,
    photon_pmf_dphi,
    pmf_fidelity,
)
from .receiver import (
    ReceiverParams,
    detector_amplitudes,
    discriminate,
    error_probability,
    helstrom_bound,
)

__version__ = "0.1.0"
