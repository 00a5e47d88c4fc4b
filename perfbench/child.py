"""Child process of the kennedyrx benchmark (started by run.py, never by hand).

    child.py cli REPORT TRACE -- ARGV...      one ``kennedyrx ARGV`` invocation
    child.py setup REPORT                     streaming monitor set-up only
    child.py stream REPORT TRACE SEED SECONDS closed-loop per-shot monitor

Each mode writes a JSON report to REPORT.  Nothing of the program is
imported before its import is timed, and the benchmark's own helpers only
after.
"""

import json
import math
import resource
import sys
import time

SQRT2 = math.sqrt(2.0)
PHI = 0.3
# Shots per monitored record.  The monitor restarts from the flat prior after
# each record, and its streamed posterior is checked against the batch
# posterior of the record's shots (checks.check_stream).  Acceptance
# criterion 9 makes the same comparison on a 4000-shot record.
RECORD_SHOTS = 4000


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _write(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def cli_mode(report_path: str, trace: bool, argv: list[str]) -> int:
    t_import = time.perf_counter()
    import kennedyrx.cli as cli

    t_ready = time.perf_counter()
    report = {"import_start": t_import, "ready": t_ready}
    tracer = None
    if trace:
        import kennedyrx
        import spans

        tracer = spans.Tracer()
        tracer.install(kennedyrx)
    report["op_start"] = time.perf_counter()
    if tracer is not None:
        root = tracer.begin("op", report["op_start"])
    try:
        report["rc"] = cli.main(argv)
    finally:
        report["done"] = time.perf_counter()
        if tracer is not None:
            tracer.end(root, report["done"])
            tracer.uninstall()
            report["spans"] = tracer.spans
        report["maxrss_kb"] = _maxrss_kb()
        _write(report_path, report)
    return report["rc"]


def _monitor_setup():
    """Import, flat prior and the cold pmf table the shots will use."""
    t0 = time.perf_counter()
    from kennedyrx import estimation
    from kennedyrx.photonstats import DetectorPlaneAmplitudes

    amps = DetectorPlaneAmplitudes(SQRT2, SQRT2)
    prior = estimation.uniform_posterior(estimation.PhaseGrid())
    estimation.sequential_update(prior, 0, amps, 0.0)
    return estimation, amps, prior, time.perf_counter() - t0


def setup_mode(report_path: str) -> int:
    *_, setup_s = _monitor_setup()
    _write(report_path, {"setup_s": setup_s, "maxrss_kb": _maxrss_kb()})
    return 0


def _record_shots(seed: int, record: int) -> list[int]:
    """Photon counts of one record at a = b = sqrt(2), phi = 0.3 (numpy, not the program)."""
    import numpy as np

    rng = np.random.default_rng([seed, record])
    signs = np.where(rng.random(RECORD_SHOTS) < 0.5, 1.0, -1.0)
    nu = 2 * SQRT2**2 + signs * 2 * SQRT2**2 * math.cos(PHI)
    return rng.poisson(nu).tolist()


def _fold(estimation, amps, post, shots, deadline, tracer, walls):
    """Fold shots into the posterior one op at a time, until done or the deadline."""
    for n in shots:
        a = time.perf_counter()
        root = None
        if tracer is not None:
            tracer.op = len(walls)
            root = tracer.begin("op", a)
        try:
            post = estimation.sequential_update(post, n, amps, 0.0)
            estimation.bayes_estimate(post)
        finally:
            b = time.perf_counter()
            if root is not None:
                tracer.end(root, b)
        walls.append(b - a)
        if b >= deadline:
            break
    return post


def stream_mode(report_path: str, trace: bool, seed: int, seconds: float) -> int:
    estimation, amps, prior, setup_s = _monitor_setup()
    import numpy as np

    import checks
    import kennedyrx
    import spans

    tracer = spans.Tracer() if trace else None
    walls: list[float] = []
    records = []  # [ops attempted, op times kept, traced, ops failed] per record
    problems: list[str] = []
    max_diff = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(records) < (2 if trace else 1):
        shots = _record_shots(seed, len(records))
        traced = tracer is not None and len(records) % 2 == 1
        before = len(walls)
        if traced:
            tracer.install(kennedyrx)
        try:
            post = _fold(estimation, amps, prior, shots, deadline, tracer if traced else None, walls)
        except Exception as exc:  # a failing op fails its record; the run goes on
            done = len(walls) - before
            problems.append(f"record {len(records)} shot {done}: {exc!r}")
            records.append([done + 1, done, traced, done + 1])
            continue
        finally:
            if traced:
                tracer.uninstall()
        done = len(walls) - before
        record = estimation.CountRecord(np.asarray(shots[:done], dtype=np.int64))
        batch = estimation.posterior(
            estimation.log_likelihood_pnr(record, amps, 0.0, prior.grid), prior.grid
        )
        max_diff = max(max_diff, float(np.max(np.abs(post.density - batch.density))))
        found = checks.check_stream(post.density, batch.density)
        problems += [f"record {len(records)}: {p}" for p in found]
        records.append([done, done, traced, done if found else 0])
    report = {
        "setup_s": setup_s,
        "walls": walls,
        "records": records,
        "problems": problems[:20],
        "max_abs_diff": max_diff,
        "maxrss_kb": _maxrss_kb(),
    }
    if tracer is not None:
        report["spans"] = tracer.spans
    _write(report_path, report)
    return 0


def main(argv: list[str]) -> int:
    mode, report_path = argv[0], argv[1]
    if mode == "cli":
        sep = argv.index("--")
        return cli_mode(report_path, argv[2] == "1", argv[sep + 1 :])
    if mode == "setup":
        return setup_mode(report_path)
    if mode == "stream":
        return stream_mode(report_path, argv[2] == "1", int(argv[3]), float(argv[4]))
    raise SystemExit(f"child.py: unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
