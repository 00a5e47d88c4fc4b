"""Benchmark of kennedyrx: end-to-end and per-layer costs of phase estimation.

Run from the root of a kennedyrx checkout (it uses ``src/`` of that checkout)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (one op each):

* ``sweep``: one ``kennedyrx sweep`` invocation on the acceptance config
  (a = b = sqrt(2), phi = 0.3, 50 replications, default m_list, all three
  methods) with a per-op seed.  The record sampler dominates.
* ``estimate-noisy``: one ``kennedyrx estimate --gamma 0.5`` on a
  3e5-shot counts file drawn here (numpy, before timing) at gamma = 0.5.
  The cold phase-noise quadrature table and the counts-file parse dominate.
* ``stream``: one shot folded by ``sequential_update`` plus the
  ``bayes_estimate`` a live monitor reads after it, on the default grid
  with a warm table.  Closed loop: the next shot goes in when the previous
  op returns.  Shots come in 4000-shot records (see child.py).

CLI ops run one at a time, each in a fresh interpreter, so each pays the
cold caches a real invocation pays.  Stream ops run in one long-lived child.
Children run with one BLAS thread, so an op uses one core.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median time until the first op is ready.  For CLI workloads
  the ``import kennedyrx.cli`` time inside each op's child; for ``stream``
  import, flat prior and the first cold table, set up five times.
* ``op_tail_s``: the highest percentile of op wall time with at least ten
  ops beyond it, per window; the median over windows.  A window is the run
  for CLI workloads and 1000 consecutive shots for ``stream``.  A window of
  fewer than 110 ops has no such percentile at or above p90, and gives its
  slowest op.  The details line records the percentile and the ops beyond.
* ``shots_per_s``: shots processed per second of op time.
* ``peak_rss_mb``: largest ``ru_maxrss`` of a process that ran ops.

A CLI op runs from the end of ``import kennedyrx.cli`` to the return of
``cli.main`` in its child, so import cost lands in ``setup_s`` alone; the
details line gives the median spawn-to-exit time as ``invocation_p50_s``.
It also gives the median op time, ``op_p50_s``, which is not gated: CPU
speed on a shared two-core machine flips between levels ~1.5x apart every
few seconds, an ``estimate-noisy`` op (~0.4 s) sees one level, and the
median of a run's ~18 such ops jumps between them.  ``shots_per_s`` is
total shots over total op time, so it averages the levels instead.

BENCHMARK.json gates ``sweep`` and ``stream``.  ``estimate-noisy`` spends
three quarters of a run importing (1.3 s of process and import per 0.4 s
op), and on a shared machine its 10-run spreads reached the 0.25 bound; it
stays runnable by hand, for traces of ``load_counts`` and the phase-noise
quadrature.

``--trace 1`` alternates untraced and traced ops (records, for ``stream``)
and reports per-layer metrics from the traced ones, each the mean per
traced op: calls, self time and work counts of the public functions of
photonstats, montecarlo, estimation and cli (see spans.py), self time per
layer, the time no layer claims, ``python -X importtime`` figures, and the
tracing overhead (traced minus untraced ``op_p50_s``).  ``cli.main.self_s``
is the CLI layer's self time outside ``load_counts``: parsing, dispatch,
formatting and writing.

Every op's output is checked (checks.py); an op fails on a nonzero exit, a
traceback or a failed check.  The last stdout line is the result JSON; the
line before it holds the details (machine, commit, seed, tail percentile,
failures, tracing overhead).  The run's details and spans are written to
``.perfbench_out/<workload>.trace<0|1>.json`` when it ends.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans
from child import PHI

HERE = Path(__file__).resolve().parent
CHILD = str(HERE / "child.py")

SQRT2 = repr(math.sqrt(2.0))
M_LIST = (100, 300, 1000, 3000, 10000, 30000)
REPLICATIONS = 50
NOISY_GAMMA = 0.5
NOISY_SHOTS = 300_000
# Stream ops per tail window: its highest percentile with ten ops beyond
# is p99.  Over a whole 4000-shot record (p99.75) the tail tracked host
# hiccups: 10-run spreads of 0.02 in one hour and 0.26 in the next.
TAIL_WINDOW = 1000
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
IMPORT_MODULES = ("kennedyrx.photonstats", "scipy.stats", "numpy")
# A run stops starting child processes after this many seconds and kills
# what is still running, so it ends inside the 180 s a run may take.
RUN_LIMIT_S = 160.0
LAYERS = ("cli", "estimation", "montecarlo", "photonstats")
UPDATES = ("estimation.log_likelihood_pnr", "estimation.log_likelihood_onoff",
           "estimation.sequential_update")


class Harness:
    """Child processes and scratch files of one run."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        path = [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        # One BLAS thread: an op uses one core, so its time does not hang on
        # what else runs on the machine's other core.
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def spawn(self, *args: str):
        """Run ``python args`` to its end; returns (exit code, stderr, spawn time, end time)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            err = proc.communicate()[1] + "\nperfbench: killed at the run's time limit"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return proc.returncode, err, t0, time.perf_counter()

    def child(self, mode: str, *args: str):
        """Run child.py in ``mode``; returns (report or {}, problems, spawn time, end time)."""
        report_path = self.work / "report.json"
        report_path.unlink(missing_ok=True)
        rc, err, t0, t1 = self.spawn(CHILD, mode, str(report_path), *args)
        problems = []
        if rc != 0:
            problems.append(f"exit {rc}: {err.strip()[-300:]}")
        elif "Traceback" in err:
            problems.append(f"traceback: {err.strip()[-300:]}")
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            report = {}
            problems = problems or ["no report"]
        return report, problems, t0, t1


class Sweep:
    shots_per_op = len(checks.SWEEP_METHODS) * REPLICATIONS * sum(M_LIST)

    def prepare(self, harness, seed):
        return random.Random(seed)

    def argv(self, rng, outdir):
        return ["sweep", "--a", SQRT2, "--b", SQRT2, "--phi", str(PHI),
                "--replications", str(REPLICATIONS), "--method", "all",
                "--seed", str(rng.randrange(2**32)), "--out", str(outdir / "sweep")]

    def check(self, rng, outdir, read_table):
        return checks.check_sweep(str(outdir / "sweep"), M_LIST, read_table)


class NoisyEstimate:
    shots_per_op = NOISY_SHOTS

    def prepare(self, harness, seed):
        """Draw the counts file at a = b = sqrt(2), phi = 0.3, gamma = 0.5 with numpy."""
        rng = np.random.default_rng(seed)
        a = b = math.sqrt(2.0)
        signs = np.where(rng.random(NOISY_SHOTS) < 0.5, 1.0, -1.0)
        psi = rng.uniform(-0.5 * NOISY_GAMMA, 0.5 * NOISY_GAMMA, NOISY_SHOTS)
        nu = np.maximum(a * a + b * b + signs * (2.0 * a * b) * np.cos(PHI - psi), 0.0)
        path = harness.work / "counts.txt"
        path.write_text("\n".join(map(str, rng.poisson(nu).tolist())) + "\n")
        return path

    def argv(self, counts, outdir):
        return ["estimate", "--counts", str(counts), "--a", SQRT2, "--b", SQRT2,
                "--gamma", str(NOISY_GAMMA), "--out", str(outdir / "posterior.csv")]

    def check(self, counts, outdir, read_table):
        return checks.check_estimate(str(outdir / "posterior.csv"), PHI, read_table)


CLI_WORKLOADS = {"sweep": Sweep(), "estimate-noisy": NoisyEstimate()}


def run_cli(harness: Harness, workload, seed: int, seconds: float, trace: bool) -> dict:
    from kennedyrx.cli import read_table

    state = workload.prepare(harness, seed)
    ops, all_spans = [], []
    t_begin = time.perf_counter()
    while len(ops) < (2 if trace else 1) or time.perf_counter() - t_begin < seconds:
        if time.perf_counter() >= harness.deadline:
            break
        traced = trace and len(ops) % 2 == 1
        outdir = harness.work / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir()
        report, problems, t0, t1 = harness.child(
            "cli", "1" if traced else "0", "--", *workload.argv(state, outdir))
        if not problems:
            problems = workload.check(state, outdir, read_table)
        op = {"wall": report.get("done", t1) - report.get("op_start", t0), "invocation": t1 - t0,
              "traced": traced, "problems": problems,
              "setup_s": report.get("ready", math.nan) - report.get("import_start", math.nan),
              "maxrss_kb": report.get("maxrss_kb", 0),
              "bytes_written": sum(p.stat().st_size for p in outdir.iterdir())}
        offset = len(all_spans)
        for name, start, end, parent, _, extra in report.get("spans", []) if traced else []:
            all_spans.append([name, start, end, parent + offset if parent >= 0 else -1,
                              len(ops), extra])
        ops.append(op)
    return {
        "walls": [op["wall"] for op in ops],
        "traced": [op["traced"] for op in ops],
        "windows": [[op["wall"] for op in ops if not op["traced"]]],
        "failed": [bool(op["problems"]) for op in ops],
        "problems": [p for op in ops for p in op["problems"]],
        "setup": [op["setup_s"] for op in ops],
        "invocation_p50_s": statistics.median(op["invocation"] for op in ops),
        "maxrss_kb": max(op["maxrss_kb"] for op in ops),
        "spans": all_spans,
        "bytes_written": statistics.fmean(
            [op["bytes_written"] for op in ops if op["traced"]] or [0]),
        "shots_per_op": workload.shots_per_op,
    }


def run_stream(harness: Harness, seed: int, seconds: float, trace: bool) -> dict:
    setup, problems, rss = [], [], []
    for _ in range(SETUP_RUNS - 1):
        report, found, _, _ = harness.child("setup")
        setup.append(report.get("setup_s", math.nan))
        rss.append(report.get("maxrss_kb", 0))
        problems += found
    report, found, _, _ = harness.child("stream", "1" if trace else "0", str(seed), str(seconds))
    problems += found + report.get("problems", [])
    setup.append(report.get("setup_s", math.nan))
    walls = report.get("walls", [])
    traced, failed, windows, pos = [], [], [], 0
    for attempted, kept, rec_traced, rec_failed in report.get("records", []):
        traced += [rec_traced] * kept
        failed += [rec_failed > 0] * kept + [True] * (attempted - kept)
        if not rec_traced:
            windows += [walls[i:i + TAIL_WINDOW]
                        for i in range(pos, pos + kept - TAIL_WINDOW + 1, TAIL_WINDOW)]
        pos += kept
    if not windows:
        windows = [[w for w, t in zip(walls, traced) if not t]]
    if found or not walls:
        failed.append(True)
    return {
        "walls": walls,
        "traced": traced,
        "windows": windows,
        "failed": failed,
        "problems": problems,
        "setup": setup,
        "maxrss_kb": max(rss + [report.get("maxrss_kb", 0)]),
        "spans": report.get("spans", []),
        "bytes_written": 0.0,
        "shots_per_op": 1,
        "max_abs_diff": report.get("max_abs_diff"),
    }


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond).

    Below 110 samples that percentile is under p90 -- at 21 it is the
    median -- so the largest sample is returned instead, with nothing
    beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    k = n - 11 if n >= 110 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def end_to_end(res: dict) -> tuple[dict, dict]:
    walls = [w for w, t in zip(res["walls"], res["traced"]) if not t]
    tails = [tail(w) for w in res["windows"] if w]
    metrics = {
        "setup_s": statistics.median(v for v in res["setup"] if math.isfinite(v)),
        "op_tail_s": statistics.median(t[0] for t in tails),
        "shots_per_s": res["shots_per_op"] * len(walls) / sum(walls),
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
    }
    details = {"op_p50_s": statistics.median(walls), "ops_untraced": len(walls),
               "tail_windows": len(tails),
               "tail_window_ops": statistics.median(len(w) for w in res["windows"]),
               "tail_percentile": statistics.median(t[1] for t in tails),
               "tail_beyond": min(t[2] for t in tails)}
    return metrics, details


def per_layer(res: dict, imports: dict) -> tuple[dict, dict]:
    span_list = res["spans"]
    traced_walls = [w for w, t in zip(res["walls"], res["traced"]) if t]
    untraced = [w for w, t in zip(res["walls"], res["traced"]) if not t]
    n = max(len({s[4] for s in span_list if s[0] == "op"}), 1)
    selfs = spans.self_times(span_list)
    calls, self_s, work = {}, {}, {}
    layer = dict.fromkeys(LAYERS + ("op",), 0.0)
    claimed: dict[int, float] = {}  # per op: self time the layers account for
    updates = []
    misses = 0
    for i, (span, own) in enumerate(zip(span_list, selfs)):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        prefix = name.split(".", 1)[0]
        layer[prefix] = layer.get(prefix, 0.0) + own
        if prefix != "op":
            claimed[span[4]] = claimed.get(span[4], 0.0) + own
        for key, value in (span[5] or {}).items():
            work[(name, key)] = work.get((name, key), 0) + value
        if name == "estimation.sequential_update":
            updates.append(span[2] - span[1])
        if name == "photonstats.pmf_table" and spans.has_ancestor(span_list, i, UPDATES):
            misses += 1
    sample_time = sum(s[2] - s[1] for s in span_list if s[0] == "montecarlo.sample_counts")
    lookups = sum(calls.get(u, 0) for u in UPDATES)

    def per_op(name):
        return self_s.get(name, 0.0) / n

    metrics = {
        "photonstats.pmf_table.calls": calls.get("photonstats.pmf_table", 0) / n,
        "photonstats.pmf_table.self_s": per_op("photonstats.pmf_table"),
        "photonstats.pmf_table.cells": work.get(("photonstats.pmf_table", "cells"), 0) / n,
        "photonstats.dphi_table.self_s": per_op("photonstats.dphi_table"),
        "montecarlo.sample_counts.calls": calls.get("montecarlo.sample_counts", 0) / n,
        "montecarlo.sample_counts.self_s": per_op("montecarlo.sample_counts"),
        "montecarlo.sample_counts.shots_per_s":
            work.get(("montecarlo.sample_counts", "shots"), 0) / sample_time if sample_time else 0.0,
        "montecarlo.run_convergence_sweep.self_s": per_op("montecarlo.run_convergence_sweep"),
        "estimation.log_likelihood_pnr.self_s": per_op("estimation.log_likelihood_pnr"),
        "estimation.log_likelihood_onoff.self_s": per_op("estimation.log_likelihood_onoff"),
        "estimation.posterior.self_s": per_op("estimation.posterior"),
        "estimation.fano_inversion_estimate.self_s": per_op("estimation.fano_inversion_estimate"),
        "estimation.fisher.self_s": per_op("estimation.fisher_pnr") + per_op("estimation.fisher_onoff"),
        "estimation.sequential_update.self_s": per_op("estimation.sequential_update"),
        "estimation.sequential_update.p50_s": statistics.median(updates) if updates else 0.0,
        "estimation.sequential_update.tail_s": tail(updates)[0] if updates else 0.0,
        "estimation.bayes_estimate.self_s": per_op("estimation.bayes_estimate"),
        "estimation.pmf_cache.hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
        "cli.load_counts.self_s": per_op("cli.load_counts"),
        "cli.load_counts.bytes": work.get(("cli.load_counts", "bytes"), 0) / n,
        "cli.main.self_s": (layer["cli"] - self_s.get("cli.load_counts", 0.0)) / n,
        "cli.bytes_written": res["bytes_written"],
    }
    for module in IMPORT_MODULES:
        metrics[f"setup.import.{module}_s"] = imports.get(module, 0.0)
    for name in LAYERS:
        metrics[f"layer.{name}.self_s"] = layer[name] / n
    metrics["trace.unattributed_s"] = layer["op"] / n
    traced_p50 = statistics.median(traced_walls) if traced_walls else math.nan
    metrics["trace.op_p50_s"] = traced_p50
    metrics["trace.overhead_s"] = traced_p50 - statistics.median(untraced)
    accounted = statistics.median(claimed.values()) if claimed else 0.0
    details = {
        "ops_traced": len(traced_walls),
        "layers_sum_p50_s": accounted,
        "layers_sum_minus_traced_p50_s": accounted - traced_p50,
        "accounted_within_overhead":
            abs(accounted - traced_p50) <= abs(metrics["trace.overhead_s"]),
    }
    return metrics, details


def import_times(harness: Harness) -> dict:
    """Median cumulative ``python -X importtime`` seconds of IMPORT_MODULES."""
    found: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    line = re.compile(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$")
    for _ in range(IMPORTTIME_RUNS):
        _, err, _, _ = harness.spawn("-X", "importtime", "-c", "import kennedyrx.cli")
        seen = {}
        for text in err.splitlines():
            match = line.match(text)
            if match and match.group(2) in found:
                seen[match.group(2)] = int(match.group(1)) / 1e6
        for module in IMPORT_MODULES:
            found[module].append(seen.get(module, 0.0))
    return {m: statistics.median(v) for m, v in found.items()}


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for text in (git / "packed-refs").read_text().splitlines():
            if text.endswith(" " + ref):
                return text.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(root: Path) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((t.split(":", 1)[1].strip() for t in fh if t.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "kennedyrx").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "commit": _commit(root),
        "source_sha256": digest.hexdigest(),
    }


def unit(metric: str) -> str:
    for suffix, name in (("shots_per_s", "1/s"), ("_s", "s"), (".calls", "calls/op"),
                         (".cells", "cells/op"), (".bytes", "B/op"), ("bytes_written", "B/op"),
                         ("_ratio", "ratio"), ("_mb", "MB")):
        if metric.endswith(suffix):
            return name
    raise KeyError(metric)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CLI_WORKLOADS) + ["stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kennedyrx" / "__init__.py").is_file():
        print("perfbench: run from the root of a kennedyrx checkout (no src/kennedyrx here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = root / ".perfbench_out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    harness = Harness(root, work)
    try:
        harness.spawn("-c", "import kennedyrx.cli")  # compile and page in; users do not pay it per run
        if args.workload == "stream":
            res = run_stream(harness, args.seed, args.seconds, bool(args.trace))
        else:
            res = run_cli(harness, CLI_WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
        metrics, details = end_to_end(res)
        if args.trace:
            metrics, traced = per_layer(res, import_times(harness))
            details.update(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = len(res["failed"]), sum(res["failed"])
    details.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(root), "attempted": attempted,
        "failed": failed, "fail_ratio": failed / attempted if attempted else 1.0,
        "problems": res["problems"][:10],
    })
    for key in ("invocation_p50_s", "max_abs_diff"):
        if key in res:
            details[key] = res[key]
    result = {
        "correct": failed == 0 and not res["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    run_file = out_dir / f"{args.workload}.trace{args.trace}.json"
    run_file.write_text(json.dumps({"details": details, "result": result, "walls": res["walls"],
                                    "spans": res["spans"]}))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
