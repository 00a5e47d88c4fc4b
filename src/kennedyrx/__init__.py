"""Kennedy-like BPSK receiver simulator with real-time Bayesian phase monitoring.

The same photon-detection record used to discriminate the transmitted bits is
processed to estimate the signal/LO relative phase, for on/off and
photon-number-resolving detection, with or without uniform phase noise.

Package names resolve on first use (PEP 562): ``kennedyrx.X`` imports the
submodule that defines ``X`` when it is first asked for, and returns that
module's own object.  A live monitor that imports only ``estimation`` (and
the ``photonstats`` it reads) therefore loads neither the sampler nor
``numpy.random``.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it: the one list of them.  Each
# submodule's __all__ is its row plus the names only the submodule exports.
_EXPORTS = {
    "estimation": (
        "CountRecord",
        "DegenerateEvidenceError",
        "PhaseEstimate",
        "PhaseGrid",
        "PhasePosterior",
        "UndefinedFanoError",
        "bayes_estimate",
        "bayes_estimates",
        "crlb_variance",
        "empirical_fano",
        "fano_inversion_estimate",
        "fano_inversion_estimates",
        "fisher_onoff",
        "fisher_pnr",
        "fold_phase",
        "invert_fano",
        "log_likelihood_onoff",
        "log_likelihood_pnr",
        "posterior",
        "sequential_update",
        "uniform_posterior",
    ),
    "montecarlo": (
        "DiscriminationResult",
        "GofResult",
        "InsufficientSupportError",
        "SimConfig",
        "SweepResult",
        "SweepRow",
        "goodness_of_fit",
        "run_convergence_sweep",
        "run_convergence_sweeps",
        "run_discrimination",
        "sample_counts",
        "stream",
    ),
    "photonstats": (
        "DetectorPlaneAmplitudes",
        "PhotonPmf",
        "default_cutoff",
        "fano_factor",
        "nu_plus_minus",
        "photon_pmf",
        "photon_pmf_dphi",
        "pmf_fidelity",
    ),
    "receiver": (
        "ReceiverParams",
        "detector_amplitudes",
        "discriminate",
        "error_probability",
        "helstrom_bound",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    # Nothing is stored here: a later lookup asks the submodule again, so a
    # name rebound in its submodule is seen through the package too.
    if name in _SOURCE:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__all__})
