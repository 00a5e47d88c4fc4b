"""The package namespace: what a live monitor loads, and the names the package exports."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kennedyrx

SRC = str(Path(__file__).resolve().parents[1] / "src")

# submodule -> the names ``kennedyrx`` exports from it
EXPORTS = {
    "estimation": [
        "CountRecord", "DegenerateEvidenceError", "PhaseEstimate", "PhaseGrid", "PhasePosterior",
        "UndefinedFanoError", "bayes_estimate", "bayes_estimates", "crlb_variance",
        "empirical_fano", "fano_inversion_estimate", "fano_inversion_estimates", "fisher_onoff",
        "fisher_pnr", "fold_phase", "invert_fano", "log_likelihood_onoff", "log_likelihood_pnr",
        "posterior", "sequential_update", "uniform_posterior",
    ],
    "montecarlo": [
        "DiscriminationResult", "GofResult", "InsufficientSupportError", "SimConfig",
        "SweepResult", "SweepRow", "goodness_of_fit", "run_convergence_sweep",
        "run_convergence_sweeps", "run_discrimination", "sample_counts", "stream",
    ],
    "photonstats": [
        "DetectorPlaneAmplitudes", "PhotonPmf", "default_cutoff", "fano_factor", "nu_plus_minus",
        "photon_pmf", "photon_pmf_dphi", "pmf_fidelity",
    ],
    "receiver": [
        "ReceiverParams", "detector_amplitudes", "discriminate", "error_probability",
        "helstrom_bound",
    ],
}
# submodule -> the names it exports and ``kennedyrx`` does not
MODULE_ONLY = {
    "estimation": ["DetectorKind"],
    "montecarlo": ["DEFAULT_M_LIST", "METHODS"],
    "photonstats": ["pmf_table", "dphi_table", "GL_NODES", "MAX_MEAN_PHOTONS"],
    "receiver": [],
}
NAMES = [name for names in EXPORTS.values() for name in names]
SUBMODULES = ["photonstats", "estimation", "montecarlo", "receiver", "cli"]
# modules a monitor never calls: the sampler, the receiver model and the CLI
NOT_FOR_A_MONITOR = ["kennedyrx.montecarlo", "kennedyrx.receiver", "kennedyrx.cli",
                     "numpy.random", "argparse"]

MONITOR = """
import json, sys
import numpy
baseline = set(sys.modules)
from kennedyrx import estimation
from kennedyrx.photonstats import DetectorPlaneAmplitudes
prior = estimation.uniform_posterior(estimation.PhaseGrid())
estimation.sequential_update(prior, 3, DetectorPlaneAmplitudes(2**0.5, 2**0.5), 0.0)
print(json.dumps(sorted(set(sys.modules) - baseline)))
"""


def test_a_monitor_loads_neither_the_sampler_nor_numpy_random():
    # the baseline is what a bare `import numpy` loads, whatever the numpy version
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", MONITOR], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert {"kennedyrx", "kennedyrx.estimation", "kennedyrx.photonstats"} <= set(added)
    assert [m for m in NOT_FOR_A_MONITOR if m in added] == []


def test_every_export_is_its_submodules_object():
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"kennedyrx.{module}")
        for name in names:
            assert getattr(kennedyrx, name) is getattr(source, name), name
    for module in SUBMODULES:
        assert getattr(kennedyrx, module) is importlib.import_module(f"kennedyrx.{module}")
    assert sorted(kennedyrx.__all__) == sorted(NAMES) and len(NAMES) == 46
    assert set(NAMES + SUBMODULES) <= set(dir(kennedyrx))


def test_the_namespace_caches_nothing(monkeypatch):
    for name in NAMES:
        getattr(kennedyrx, name)
    assert not set(NAMES) & set(vars(kennedyrx))
    # a name rebound in its submodule is seen through the package, and its restoration too
    original = kennedyrx.estimation.posterior
    with monkeypatch.context() as patch:
        patch.setattr(kennedyrx.estimation, "posterior", len)
        assert kennedyrx.posterior is len
    assert kennedyrx.posterior is original


def test_star_import_binds_the_exports():
    namespace: dict = {}
    exec("from kennedyrx import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(NAMES)
    assert all(namespace[name] is getattr(kennedyrx, name) for name in NAMES)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_a_submodule_exports_its_row_and_its_own_names(module):
    # __all__ is the package's row for the submodule plus the names only it exports
    source = importlib.import_module(f"kennedyrx.{module}")
    names = source.__all__
    assert len(set(names)) == len(names)
    assert sorted(kennedyrx._EXPORTS[module]) == sorted(EXPORTS[module])
    assert sorted(names) == sorted(EXPORTS[module] + MODULE_ONLY[module])
    assert [name for name in names if not hasattr(source, name)] == []
    namespace: dict = {}
    exec(f"from kennedyrx.{module} import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(names)
    assert all(namespace[name] is getattr(source, name) for name in names)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'kennedyrx' has no attribute 'no_such_name'"):
        kennedyrx.no_such_name
    assert not hasattr(kennedyrx, "photon_pmf_table")
    with pytest.raises(ImportError):
        exec("from kennedyrx import no_such_name", {})
