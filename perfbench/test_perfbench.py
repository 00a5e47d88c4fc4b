"""Tests of the benchmark itself: span arithmetic, tracer hygiene, output checks."""

import math
import sys
import types

import numpy as np
import pytest

import checks
import run
import spans

import kennedyrx
from kennedyrx import cli, estimation, montecarlo, photonstats

SQRT2 = math.sqrt(2.0)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    tree = [
        ["op", 0.0, 10.0, -1, 0, None],
        ["cli.main", 1.0, 4.0, 0, 0, None],
        ["estimation.posterior", 2.0, 3.0, 1, 0, None],
        ["photonstats.pmf_table", 3.5, 5.0, 0, 0, None],  # overlaps cli.main
        ["estimation.bayes_estimate", 9.0, 12.0, 0, 0, None],  # runs past the op's end
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 4.0 - 1.0, 2.0, 1.0, 1.5, 3.0])
    assert spans.has_ancestor(tree, 2, {"op"})
    assert not spans.has_ancestor(tree, 0, {"op"})


def test_tail_needs_ten_samples_beyond_it_at_p90_or_above():
    assert run.tail(list(range(4000))) == (3989, 99.75, 10)
    assert run.tail(list(range(110))) == (99, 100 * 100 / 110, 10)
    assert run.tail(list(range(109))) == (108, 100.0, 0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def _kennedyrx_namespace():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if mod is not None and (name == "kennedyrx" or name.startswith("kennedyrx."))
        for attr, value in vars(mod).items()
    }


def test_tracer_wraps_every_alias_and_restores_the_originals():
    before = _kennedyrx_namespace()
    original = estimation.posterior
    amps = photonstats.DetectorPlaneAmplitudes(SQRT2, SQRT2)
    tracer = spans.Tracer()
    tracer.install(kennedyrx)
    try:
        wrapped = estimation.posterior
        assert wrapped is not original
        assert cli.posterior is wrapped and kennedyrx.posterior is wrapped
        assert not isinstance(cli.ConfigError, types.FunctionType)  # classes untouched
        estimation.fisher_pnr(amps, 0.3, 0.5)
        montecarlo.sample_counts(montecarlo.SimConfig(amps=amps, phi_star=0.3, M=50, seed=1))
    finally:
        tracer.uninstall()
    assert _kennedyrx_namespace().keys() == before.keys()
    assert all(value is before[key] for key, value in _kennedyrx_namespace().items())

    names = [s[0] for s in tracer.spans]
    fisher = names.index("estimation.fisher_pnr")
    table = names.index("photonstats.pmf_table")
    assert tracer.spans[table][3] == fisher  # reached through photonstats.pmf_table
    assert tracer.spans[table][5] == {"cells": 1 * (photonstats.default_cutoff(amps) + 1) * 64}
    sample = names.index("montecarlo.sample_counts")
    assert tracer.spans[sample][5] == {"shots": 50}
    assert tracer.spans[names.index("montecarlo.stream")][3] == sample
    assert all(s[1] <= s[2] for s in tracer.spans)


@pytest.fixture(scope="module")
def sweep_prefix(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("sweep") / "sweep"
    rc = cli.main(["sweep", "--a", repr(SQRT2), "--b", repr(SQRT2), "--phi", "0.3",
                   "--replications", "5", "--m-list", "3000,30000", "--seed", "7",
                   "--out", str(prefix)])
    assert rc == 0
    return prefix


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


@pytest.mark.parametrize("corruption", ["drop_row", "ratio", "garble", "missing"])
def test_sweep_check_rejects_corrupted_output(sweep_prefix, tmp_path, corruption):
    prefix = tmp_path / "sweep"
    for method in checks.SWEEP_METHODS:
        (tmp_path / f"sweep_{method}.csv").write_text(
            (sweep_prefix.parent / f"sweep_{method}.csv").read_text())
    assert checks.check_sweep(str(prefix), (3000, 30000), cli.read_table) == []

    pnr = tmp_path / "sweep_bayes-pnr.csv"
    if corruption == "drop_row":
        lines = (tmp_path / "sweep_bayes-onoff.csv").read_text().splitlines()
        (tmp_path / "sweep_bayes-onoff.csv").write_text("\n".join(lines[:-1]) + "\n")
    elif corruption == "ratio":
        _, _, rows = cli.read_table(str(pnr))
        _edit(pnr, f"30000,{rows[-1][1]:.17g}", "30000,0.5")
    elif corruption == "garble":
        _edit(tmp_path / "sweep_fano-inversion.csv", "\n3000,", "\n3000,x")
    else:
        pnr.unlink()
    assert checks.check_sweep(str(prefix), (3000, 30000), cli.read_table)


@pytest.mark.parametrize("corruption", ["mass", "mean", "header"])
def test_estimate_check_rejects_corrupted_output(tmp_path, corruption):
    rng = np.random.default_rng(3)
    signs = np.where(rng.random(20000) < 0.5, 1.0, -1.0)
    counts = rng.poisson(4.0 + signs * 4.0 * math.cos(0.3))
    (tmp_path / "counts.txt").write_text("\n".join(map(str, counts)) + "\n")
    out = tmp_path / "posterior.csv"
    assert cli.main(["estimate", "--counts", str(tmp_path / "counts.txt"), "--a", repr(SQRT2),
                     "--b", repr(SQRT2), "--out", str(out)]) == 0
    assert checks.check_estimate(str(out), 0.3, cli.read_table) == []

    if corruption == "mass":
        lines = out.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("0.3"))
        phi, pnr, onoff = lines[row].split(",")
        lines[row] = f"{phi},{float(pnr) * 2:.17g},{onoff}"
        out.write_text("\n".join(lines) + "\n")
    elif corruption == "mean":
        _edit(out, "# pnr: mean=0.", "# pnr: mean=1.")
    else:
        _edit(out, "density_onoff", "density")
    assert checks.check_estimate(str(out), 0.3, cli.read_table)


def test_stream_check_rejects_a_misfolded_shot():
    amps = photonstats.DetectorPlaneAmplitudes(SQRT2, SQRT2)
    grid = estimation.PhaseGrid()
    shots = [3, 0, 7, 5, 1, 4, 9, 2]
    post = estimation.uniform_posterior(grid)
    for n in shots:
        post = estimation.sequential_update(post, n, amps, 0.0)
    record = estimation.CountRecord(np.array(shots))
    batch = estimation.posterior(estimation.log_likelihood_pnr(record, amps, 0.0, grid), grid)
    assert checks.check_stream(post.density, batch.density) == []

    skipped = estimation.CountRecord(np.array(shots[:-1]))
    other = estimation.posterior(estimation.log_likelihood_pnr(skipped, amps, 0.0, grid), grid)
    assert checks.check_stream(post.density, other.density)
    nudged = batch.density.copy()
    nudged[1000] += 1e-9 * max(1.0, nudged.max())
    assert checks.check_stream(post.density, nudged)
