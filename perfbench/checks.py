"""Output checks of the kennedyrx benchmark.

Each check returns a list of problems, empty when the output is right.  A
problem fails the operation that produced the output.  ``read_table`` is the
program's own CSV reader, ``kennedyrx.cli.read_table``.
"""

from __future__ import annotations

import math
import re

import numpy as np

SWEEP_METHODS = ("bayes-pnr", "bayes-onoff", "fano-inversion")

# bayes-pnr ensemble mean / truth at the largest M.  At the benchmark's
# a = b = sqrt(2), phi = 0.3 with 50 replications of 30000 shots the ratio's
# standard error is ~0.002, so 0.05 flags a wrong estimator, not noise.
SWEEP_RATIO_TOL = 0.05

# Both posterior densities are normalized by the program with the same
# trapezoid rule; 17-digit output keeps the re-integrated mass to ~1e-15.
MASS_TOL = 1e-9

# The pnr posterior mean must lie this many posterior sd from the truth.
ESTIMATE_SDS = 5.0

# Streaming must reproduce the batch posterior to 1e-10 per grid point,
# relative to the peak density once that exceeds 1.  A posterior of sd s
# peaks near 1/s, and the rounding both routes make scales with it: on
# 4000-shot records at a = b = sqrt(2) the absolute difference reaches ~1e-10
# at peak densities ~45, while a skipped or misfolded shot moves the density
# by a sizeable fraction of its peak.
STREAM_TOL = 1e-10

_SUMMARY = re.compile(r"^# pnr: mean=(\S+) variance=(\S+)", re.MULTILINE)


def check_sweep(prefix: str, m_list, read_table) -> list[str]:
    """The three ``<prefix>_<method>.csv`` files of ``kennedyrx sweep --method all``."""
    problems = []
    expected = [float(m) for m in m_list]
    for method in SWEEP_METHODS:
        path = f"{prefix}_{method}.csv"
        try:
            _, header, rows = read_table(path)
        except (OSError, ValueError) as exc:
            problems.append(f"{method}: unreadable: {exc}")
            continue
        if header[:2] != ["M", "mean_ratio"]:
            problems.append(f"{method}: header {header}")
            continue
        if any(not isinstance(cell, float) for row in rows for cell in row):
            problems.append(f"{method}: non-numeric cell")
            continue
        if [row[0] for row in rows] != expected:
            problems.append(f"{method}: rows for M={[row[0] for row in rows]}, expected {expected}")
            continue
        if method == "bayes-pnr":
            ratio = rows[-1][1]
            if not abs(ratio - 1.0) <= SWEEP_RATIO_TOL:
                problems.append(f"bayes-pnr mean_ratio {ratio!r} at M={expected[-1]:g} is not ~1")
    return problems


def check_estimate(path: str, phi_true: float, read_table) -> list[str]:
    """The posterior CSV of ``kennedyrx estimate``."""
    try:
        _, header, rows = read_table(path)
        with open(path, encoding="utf-8") as fh:
            summary = _SUMMARY.search(fh.read())
    except (OSError, ValueError) as exc:
        return [f"unreadable: {exc}"]
    if header != ["phi", "density_pnr", "density_onoff"]:
        return [f"header {header}"]
    try:
        table = np.array(rows, dtype=float)
    except ValueError:
        return ["non-numeric cell"]
    if table.ndim != 2 or table.shape[0] < 2 or table.shape[1] != 3:
        return [f"table shape {table.shape}"]
    problems = []
    for col, kind in ((1, "pnr"), (2, "onoff")):
        mass = float(np.trapezoid(table[:, col], table[:, 0]))
        if not abs(mass - 1.0) <= MASS_TOL:
            problems.append(f"{kind} density integrates to {mass!r}")
    if summary is None:
        problems.append("no pnr summary line")
    else:
        mean, var = float(summary.group(1)), float(summary.group(2))
        if not (var > 0.0 and abs(mean - phi_true) <= ESTIMATE_SDS * math.sqrt(var)):
            problems.append(f"pnr mean {mean!r} (variance {var!r}) is not near phi={phi_true}")
    return problems


def check_stream(streamed, batch) -> list[str]:
    """Streamed posterior density against the batch posterior of the same shots."""
    streamed = np.asarray(streamed, dtype=float)
    batch = np.asarray(batch, dtype=float)
    if streamed.shape != batch.shape:
        return [f"shape {streamed.shape} != {batch.shape}"]
    diff = float(np.max(np.abs(streamed - batch)))
    bound = STREAM_TOL * max(1.0, float(np.max(np.abs(batch))))
    if not diff <= bound:
        return [f"streamed posterior differs from batch by {diff!r} > {bound!r}"]
    return []
