"""One rule per kind of input, checked from the signatures of the entry points.

Every function or class the package exports, and the photon-statistics
tables, that takes a phase ``phi`` or ``phis``, a noise width ``gamma`` or a
Fano factor ``fano`` rejects a bool, a string, a NaN, an infinity, a list
holding a NaN and a ragged list there with a ``ValueError`` that names the
input.  The other arguments come from one table of valid values keyed by
parameter name, so a new entry point with such a parameter is covered once
it is exported, and one with a parameter the table lacks fails here until
the table has it.
Arrays of any integer or float dtype give the results of their Python values.
"""

import inspect
import math

import numpy as np
import pytest

import kennedyrx
from kennedyrx import photonstats
from kennedyrx.estimation import CountRecord, PhaseGrid, uniform_posterior
from kennedyrx.photonstats import DetectorPlaneAmplitudes

GRID = PhaseGrid(size=17)
VALID = {
    "amps": DetectorPlaneAmplitudes(math.sqrt(2), math.sqrt(2)),
    "record": CountRecord(np.array([0, 1, 2, 3, 5])),
    "grid": GRID,
    "post": uniform_posterior(GRID),
    "event": 1,
    "values": np.array([0, 1, 3]),
    "occupancy": np.array([[2, 2, 1]]),
    "detector_kind": "pnr",
    "beta": 1.0,
    "ns": [0, 2],
    "phi_star": 0.3,
    "M": 10,
    "seed": 1,
    "phi": 0.3,
    "phis": [0.3],
    "gamma": 0.5,
    "fano": 2.0,
}
# checked parameter -> the name its ValueError carries
CHECKED = {"phi": "phase phi", "phis": "phase phi", "gamma": "gamma", "fano": "Fano factor"}
BAD = [True, "0.3", math.nan, math.inf, [0.3, math.nan], [[0.3], [0.3, 0.4]]]

ENTRY_POINTS = [getattr(kennedyrx, name) for name in kennedyrx.__all__] + [
    photonstats.pmf_table, photonstats.dphi_table,
]


def _checked_parameters():
    for entry in ENTRY_POINTS:
        try:
            params = inspect.signature(entry).parameters
        except ValueError:  # the exported exceptions have no Python signature
            continue
        for name in params:
            if name in CHECKED:
                yield pytest.param(entry, name, id=f"{entry.__name__}-{name}")


CASES = list(_checked_parameters())


def _arguments(entry, **override):
    """Valid values for every parameter of ``entry`` without a default, and
    for the checked ones, with ``override`` on top."""
    args = {}
    for name, param in inspect.signature(entry).parameters.items():
        if param.default is inspect.Parameter.empty or name in CHECKED:
            assert name in VALID, f"{entry.__name__} takes {name!r}, which VALID lacks"
            args[name] = VALID[name]
    return {**args, **override}


def test_the_entry_points_with_checked_inputs_are_found():
    covered = {case.values[0].__name__ for case in CASES}
    assert {"fano_factor", "nu_plus_minus", "photon_pmf", "photon_pmf_dphi", "pmf_table",
            "dphi_table", "sequential_update", "fold_phase", "invert_fano",
            "fisher_pnr", "error_probability", "SimConfig"} <= covered


@pytest.mark.parametrize("entry, name", CASES)
def test_valid_arguments_pass(entry, name):
    entry(**_arguments(entry))


@pytest.mark.parametrize("bad", BAD, ids=["bool", "string", "nan", "inf", "list-with-nan", "ragged"])
@pytest.mark.parametrize("entry, name", CASES)
def test_bool_string_or_non_finite_input_raises_naming_it(entry, name, bad):
    with pytest.raises(ValueError, match=CHECKED[name]):
        entry(**_arguments(entry, **{name: bad}))


def test_a_ragged_count_record_raises_naming_it():
    with pytest.raises(ValueError, match="counts"):
        CountRecord([[1], [1, 2]])


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64, np.float16, np.float32])
def test_arrays_of_any_integer_or_float_dtype_give_the_python_values_results(dtype):
    amps = VALID["amps"]
    phis = np.array([0, 1], dtype=dtype)
    python = [float(phi) for phi in phis]
    assert np.array_equal(photonstats.pmf_table(amps, phis, 0.5),
                          photonstats.pmf_table(amps, python, 0.5))
    assert np.array_equal(kennedyrx.fisher_pnr(amps, phis), kennedyrx.fisher_pnr(amps, python))
    assert np.array_equal(kennedyrx.invert_fano(phis + 1, amps)[0],
                          kennedyrx.invert_fano([phi + 1 for phi in python], amps)[0])
    if np.issubdtype(dtype, np.integer):
        record = CountRecord(np.array([0, 3, 3, 7], dtype=dtype))
        assert record.counts.tolist() == [0, 3, 3, 7] and record.counts.dtype == np.int64


AMPS = VALID["amps"]
# scalar input -> (a call taking the value there, the name its ValueError carries)
SCALAR_INPUTS = {
    "amplitude a": (lambda x: DetectorPlaneAmplitudes(x, 1.0), "amplitude a"),
    "amplitude b": (lambda x: DetectorPlaneAmplitudes(1.0, x), "amplitude b"),
    "gamma": (lambda x: photonstats.fano_factor(AMPS, 0.3, x), "gamma"),
    "n_max": (lambda x: photonstats.pmf_table(AMPS, [0.3], n_max=x), "n_max"),
    "tail_bound": (lambda x: photonstats.PhotonPmf(np.array([1.0]), x), "tail_bound"),
    "phi": (lambda x: photonstats.nu_plus_minus(AMPS, x), "phase phi"),
    "pmf phi": (lambda x: photonstats.photon_pmf(AMPS, x, 0.5), "phase phi"),
    "derivative phi": (lambda x: photonstats.photon_pmf_dphi(AMPS, x), "phase phi"),
    "grid lo": (lambda x: PhaseGrid(x, 1.0), "grid lo"),
    "grid size": (lambda x: PhaseGrid(size=x), "grid size"),
    "event": (lambda x: kennedyrx.sequential_update(VALID["post"], x, AMPS, 0.0), "photon count"),
    "sample_size": (lambda x: kennedyrx.crlb_variance(1.0, x), "sample_size"),
    "fisher": (lambda x: kennedyrx.crlb_variance(x, 10), "Fisher information"),
    "phi_star": (lambda x: kennedyrx.SimConfig(AMPS, x, 10, 1), "phi_star"),
    "M": (lambda x: kennedyrx.SimConfig(AMPS, 0.3, x, 1), "M"),
    "seed": (lambda x: kennedyrx.SimConfig(AMPS, 0.3, 10, x), "seed"),
    "beta": (lambda x: kennedyrx.ReceiverParams(beta=x, alpha=1.0, tau=0.5), "beta"),
    "count": (lambda x: kennedyrx.discriminate(x), "photon count"),
    "error_probability": (lambda x: kennedyrx.error_probability(x, 0.3), "beta"),
    "helstrom_bound": (lambda x: kennedyrx.helstrom_bound(x), "beta"),
}


@pytest.mark.parametrize("value", [np.array(3), np.array([3, 4]), np.array(0.3),
                                   np.array([0.3, 0.4])], ids=["0d-int", "1d-int", "0d", "1d"])
@pytest.mark.parametrize("site", list(SCALAR_INPUTS))
def test_an_array_at_a_scalar_input_raises_naming_it(site, value):
    call, name = SCALAR_INPUTS[site]
    with pytest.raises(ValueError, match=name):
        call(value)
