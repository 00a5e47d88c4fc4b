"""Contracts of the ``kennedyrx`` command line, checked as properties.

* Any flag set drawn from a fixed pool of valid and invalid values exits 0,
  2, 3 or 4: ``cli.main`` never raises.
* A run that exits 0 records a ``# key=value`` block that, turned back into
  flags, reproduces its output.
* Every value a config key's parser accepts, from any raw string, parses
  back from its comment-block form to itself.
* A record impossible under the model exits 4 in bounded memory.
* Without phase noise the sweep is invariant under phi* -> -phi*, and its
  estimates are equal in distribution under phi* -> pi - phi*.
"""

import contextlib
import io
import math
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from kennedyrx import cli
from kennedyrx.montecarlo import METHODS, SimConfig, run_convergence_sweeps
from kennedyrx.photonstats import DetectorPlaneAmplitudes

SQRT2 = "1.4142135623730951"
AMPLITUDES = ["0", "0.6", "1", SQRT2, "20", "5e-324", "1e-300", "1e-160"]

# Flag values that parse.  They keep every run small: M <= 50, m_list <= 3,5,
# replications <= 2, grid <= 17.  "{tmp}" is the directory of FILES.
VALID = {
    "phi": ["0", "0.3", "-0.3", "-1.0000000000000001e-05", "1.5707963267948966", "3", "1e300"],
    "gamma": ["0", "0.5", "6.283185307179586", "5e-324"],
    "M": ["1", "3", "50"],
    "seed": ["0", "1", "18446744073709551615"],
    "replications": ["1", "2"],
    "grid": ["2", "5", "17"],
    "method": ["all", "bayes-pnr", "bayes-onoff", "fano-inversion"],
    "m_list": ["1,2", "3", "3,5"],
    "counts": ["{tmp}/mixed", "{tmp}/zeros", "{tmp}/impossible", "{tmp}/two", "{tmp}/largest"],
    "out": ["{tmp}/out"],
}
# Flag values that do not.
INVALID = {
    "a": ["-1", "nan", "inf", "21", "x"],
    "b": ["-1", "nan", "21"],
    "alpha": ["-2", "30"],
    "tau": ["0", "1", "2"],
    "phi": ["nan", "inf", "-inf"],
    "gamma": ["7", "-0.1"],
    "M": ["0", "-1", "10000001", "1.5"],
    "seed": ["-1", "18446744073709551616"],
    "replications": ["0", "100001"],
    "grid": ["1", "20002", "x"],
    "method": ["mle"],
    "m_list": ["5,3", "0", "", "3,10000001", "a"],
    "counts": [f"{{tmp}}/{name}" for name in
               ("empty", "negative", "text", "overflow", "latin1.cfg", "absent")],
    "out": ["{tmp}/absent/out", ""],
    "config": [f"{{tmp}}/{name}" for name in
               ("malformed.cfg", "unknown.cfg", "latin1.cfg", "absent.cfg")],
}
FILES = {
    "mixed": b"0\n1\n2\n3\n5\n0\n",
    "zeros": b"0\n" * 10,
    "impossible": b"0\n3\n1000000000000000000\n",
    "two": b"1\n2\n",
    "largest": b"0\n1\n9223372036854775807\n",
    "empty": b"# nothing\n",
    "negative": b"1\n-1\n",
    "text": b"1\nx\n",
    "overflow": b"9223372036854775808\n",
    "latin1.cfg": b"a=\xff\n",
    "amps.cfg": b"a=1\nb=1  # both amplitudes\n",
    "malformed.cfg": b"a\n",
    "unknown.cfg": b"detector=pnr\n",
}


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    root = tmp_path_factory.mktemp("contracts")
    for name, data in FILES.items():
        (root / name).write_bytes(data)
    return root


def argv(command: str, flags: dict, tmp: Path) -> list[str]:
    args = [command]
    for key, value in flags.items():
        args += ["--" + key.replace("_", "-"), value.format(tmp=tmp)]
    return args


@st.composite
def flag_sets(draw, max_invalid=2):
    """A subcommand with a valid value for every key it takes and one source of
    amplitudes, then up to ``max_invalid`` of its keys set to invalid values
    and up to two keys dropped."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    keys = (*cli._keys(command), "config")
    flags = {key: draw(st.sampled_from(values)) for key, values in VALID.items() if key in keys}
    amplitude = st.sampled_from(AMPLITUDES)
    source = draw(st.sampled_from(["direct", "physical", "beta", "config"]))
    if source == "direct":
        flags.update(a=draw(amplitude), b=draw(amplitude))
    elif source == "physical":
        flags.update(alpha=draw(amplitude), beta=draw(amplitude), tau=draw(st.sampled_from(["0.5", "0.999"])))
    elif source == "beta":
        flags.update(beta=draw(amplitude))
    else:
        flags.update(config="{tmp}/amps.cfg")
    invalid = sorted(key for key in INVALID if key in keys)
    for key in draw(st.lists(st.sampled_from(invalid), max_size=max_invalid, unique=True)):
        flags[key] = draw(st.sampled_from(INVALID[key]))
    for key in draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True)):
        # an absent M, m_list, grid or replications would take its default,
        # beyond the sizes above
        if key not in ("M", "m_list", "grid", "replications"):
            del flags[key]
    return command, flags


@settings(max_examples=300, deadline=None, derandomize=True)
@given(flag_sets())
@example(("sweep", {**{k: VALID[k][0] for k in cli._keys("sweep") if k in VALID}, "phi": "0.3",
                    "m_list": "3,5", "a": "5e-324", "b": SQRT2}))
@example(("fano", {"counts": "{tmp}/mixed", "a": "1e-300", "b": "1"}))
@example(("estimate", {"counts": "{tmp}/mixed", "a": "1e-160", "b": "1e-160", "gamma": "0.5",
                       "grid": "17", "out": "{tmp}/out"}))
@example(("estimate", {"counts": "{tmp}/zeros", "a": "20", "b": "20", "grid": "5", "out": "{tmp}/out"}))
def test_every_flag_set_exits_with_a_documented_code(tmp, case):
    command, flags = case
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv(command, flags, tmp))
    assert code in (0, 2, 3, 4)
    # a failure names its cause on stderr; a success writes nothing there
    assert (code == 0) == (err.getvalue() == "")


def _run_quietly(args: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(args)


def _outputs(directory: Path) -> dict[str, list[str]]:
    """The non-comment lines of every file a run wrote into ``directory``."""
    return {
        path.name: [line for line in path.read_text().splitlines() if not line.startswith("#")]
        for path in sorted(directory.iterdir())
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(flag_sets(max_invalid=0))
@example(("sweep", {**{k: VALID[k][0] for k in cli._keys("sweep") if k in VALID}, "phi": "-0.3",
                    "m_list": "3,5", "gamma": "0.5", "a": "0.6", "b": SQRT2}))
@example(("fano", {"counts": "{tmp}/mixed", "alpha": "1", "beta": "0.6", "tau": "0.999"}))
def test_comment_block_replays_every_run(tmp, case):
    command, flags = case
    first, second = (Path(tempfile.mkdtemp(dir=tmp)) for _ in range(2))
    if _run_quietly(argv(command, {**flags, "out": str(first / "out")}, tmp)) != 0:
        return
    # rebuild the command line from the block, as a user would
    replay = [command]
    for line in next(first.iterdir()).read_text().splitlines():
        if line.startswith("# ") and "=" in line:
            key, value = line[2:].split("=", 1)
            if key in cli._CONVERTERS and key != "out":
                replay += ["--" + key.replace("_", "-"), value]
    assert _run_quietly(replay + ["--out", str(second / "out")]) == 0
    assert _outputs(first) == _outputs(second)


BIG = 2**70
RAW_VALUES = st.one_of(
    st.text(),
    st.floats().map(repr),  # nan and inf included
    st.integers(-BIG, BIG).map(str),
    st.lists(st.integers(-BIG, BIG), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from([*METHODS, "all"]),
)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(RAW_VALUES)
def test_every_parsed_value_replays_to_itself(raw):
    for key, parse in cli._CONVERTERS.items():
        try:
            value = parse(key, raw)
        except cli.ConfigError:
            continue
        again = parse(key, cli._fmt(value))
        assert (type(again), again) == (type(value), value), (key, raw)
        if isinstance(value, float):
            assert math.copysign(1.0, again) == math.copysign(1.0, value), (key, raw)


def test_impossible_record_exits_4_in_bounded_memory(tmp):
    # vacuum never yields a photon; one count of 10^18 must not size anything
    args = argv("estimate", {"a": "0", "b": "0", "counts": "{tmp}/impossible", "out": "{tmp}/out"}, tmp)
    tracemalloc.start()
    try:
        code = cli.main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert peak < 32 * 2**20


@settings(max_examples=8, deadline=None, derandomize=True)
@given(phi=st.floats(min_value=0.01, max_value=3.13), a=st.sampled_from(["0.6", "1", SQRT2]))
def test_sweep_is_invariant_under_phase_reflection(tmp, phi, a):
    # the photon statistics depend on phi* only through cos(phi*)
    for sign in ("", "-"):
        flags = {"a": a, "b": "1", "phi": sign + repr(phi), "seed": "5", "replications": "3",
                 "m_list": "30,100", "grid": "65", "out": f"{{tmp}}/sweep{sign}"}
        assert cli.main(argv("sweep", flags, tmp)) == 0
    paths = sorted(tmp.glob("sweep_*.csv"))
    assert len(paths) == 6
    for path in paths:
        mirrored = [
            line for line in (tmp / ("sweep-" + path.name[5:])).read_text().splitlines()
            if not line.startswith(("# phi=", "# out="))
        ]
        plain = [line for line in path.read_text().splitlines()
                 if not line.startswith(("# phi=", "# out="))]
        assert mirrored == plain


def test_sweep_estimates_are_equal_in_distribution_under_phase_complement():
    # phi* -> pi - phi* swaps the two components nu+ and nu-, so the records
    # differ but every estimate of the folded phase has the same law; the
    # two sweeps use different seeds so their samples are independent
    amps = DetectorPlaneAmplitudes(a=math.sqrt(2.0), b=math.sqrt(2.0))
    for gamma in (0.0, 0.5):
        plain, mirrored = (
            run_convergence_sweeps(
                SimConfig(amps=amps, phi_star=phi, M=300, seed=seed, gamma=gamma, replications=200),
                METHODS, m_list=(300,),
            )
            for phi, seed in ((0.3, 1), (math.pi - 0.3, 2))
        )
        for x, y in zip(plain, mirrored):
            assert ks_2samp(x.estimates[0], y.estimates[0]).pvalue > 1e-3, (gamma, x.method)
