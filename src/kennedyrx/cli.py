"""Command-line surface: config parsing, count-record I/O, experiment dispatch.

Subcommands
-----------
simulate      draw a detection record and write it as a counts file
estimate      Bayes posterior and estimate (both detector kinds) from counts
fisher        tabulate both Fisher informations over a phase grid
fano          Fano-inversion phase estimate from a counts file
discriminate  empirical bit-error rate vs the analytic error probability
sweep         estimator convergence curves over growing sample sizes

One table, ``_COMMANDS``, declares each subcommand once: its handler, help
line, required keys and the keys its comment block records.  A subcommand
takes the amplitude keys and the keys it records, and no other: its parser
builds only those flags, its config file may set only those keys, and
:func:`dispatch` records them.

Configuration comes from an optional flat ``key=value`` file (one pair per
line, ``#`` comments) merged with command-line flags; flags win.  Config and
counts files must be UTF-8 text.  Sizes are bounded before anything is
allocated: ``M`` and every ``m_list`` entry by ``MAX_SHOTS``, ``replications``
by ``MAX_REPLICATIONS`` and ``grid`` by ``MAX_GRID_POINTS``.  All tabular
output is CSV with a leading ``# key=value`` comment block that records the
fully resolved configuration, so any output can be reproduced by turning
those pairs back into flags.  Angles are always radians; reals are written
with 17 significant digits so re-parsing is lossless.

Exit status: 0 success, 2 config error, 3 data error, 4 numerical degeneracy,
which includes a Bayes posterior whose sd is below half the grid step.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .estimation import (
    CountRecord,
    DegenerateEvidenceError,
    PhaseGrid,
    UndefinedFanoError,
    _invertible_fano_terms,
    bayes_estimate,
    crlb_variance,
    empirical_fano,
    fano_inversion_estimate,
    fisher_onoff,
    fisher_pnr,
    fold_phase,
    log_likelihood_onoff,
    log_likelihood_pnr,
    posterior,
)
from .montecarlo import (
    DEFAULT_M_LIST,
    METHODS,
    SimConfig,
    run_convergence_sweeps,
    run_discrimination,
    sample_counts,
    stream,
)
from .photonstats import GAMMA_MAX, DetectorPlaneAmplitudes, _real, _whole, default_cutoff
from .receiver import ReceiverParams, detector_amplitudes, error_probability

__all__ = [
    "RunConfig",
    "ConfigError",
    "DataError",
    "parse_config",
    "load_counts",
    "read_table",
    "dispatch",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DEGENERATE = 4

# Largest phase grid: 10x the default; keeps the 256-column ln p_n cache <= 41 MB.
MAX_GRID_POINTS = 20_001
# Largest record: 33x the 3e5 shots of the acceptance runs; the sampler's
# temporaries take ~86 B per shot with phase noise (about 0.9 GB) and ~49 B
# without (about 0.5 GB).
MAX_SHOTS = 10**7
# Most sweep replications per sample size.
MAX_REPLICATIONS = 10**5


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class DataError(ValueError):
    """Unreadable or malformed data file."""


class UnresolvedPosteriorError(ValueError):
    """A Bayes posterior narrower than its phase grid resolves (exit 4)."""


def _parse_number(key: str, raw: str, kind=float, lo=-math.inf, hi=math.inf):
    """``raw`` read as a ``kind``, float or int, and held to the library's rule
    for that kind (``_real`` or ``_whole``) in [lo, hi]."""
    try:
        v = kind(raw)
    except ValueError:
        noun = "a real number" if kind is float else "an integer"
        raise ConfigError(f"config key '{key}': expected {noun}, got {raw!r}") from None
    try:
        return (_real if kind is float else _whole)(f"config key '{key}'", v, lo, hi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_tau(key: str, raw: str) -> float:
    v = _parse_number(key, raw)
    if not 0.0 < v < 1.0:
        raise ConfigError(f"config key '{key}': {key} must lie in (0,1)")
    return v


def _parse_choice(key: str, raw: str, choices: tuple[str, ...]) -> str:
    if raw not in choices:
        raise ConfigError(f"config key '{key}': must be one of {', '.join(choices)}; got {raw!r}")
    return raw


def _parse_m_list(key: str, raw: str) -> tuple[int, ...]:
    tokens = [tok for tok in raw.split(",") if tok.strip()]
    values = tuple(_parse_number(key, tok, int, 1, MAX_SHOTS) for tok in tokens)
    if not values:
        raise ConfigError(f"config key '{key}': expected comma-separated integers, got {raw!r}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"config key '{key}': sample sizes must be strictly increasing")
    return values


def _parse_text(key: str, raw: str) -> str:
    return raw


def _key(parse, default=None, **rule):
    """A :class:`RunConfig` field that declares a config key: its default, and
    ``parse(key, raw, **rule)`` in its metadata."""
    return dataclasses.field(default=default, metadata={"parse": functools.partial(parse, **rule)})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration for one subcommand invocation."""

    command: str
    a: float | None = _key(_parse_number, kind=float, lo=0.0)
    b: float | None = _key(_parse_number, kind=float, lo=0.0)
    alpha: float | None = _key(_parse_number, kind=float, lo=0.0)
    beta: float | None = _key(_parse_number, kind=float, lo=0.0)
    tau: float | None = _key(_parse_tau)
    phi: float | None = _key(_parse_number, kind=float)
    gamma: float = _key(_parse_number, 0.0, kind=float, lo=0.0, hi=GAMMA_MAX)
    M: int | None = _key(_parse_number, kind=int, lo=1, hi=MAX_SHOTS)
    seed: int | None = _key(_parse_number, kind=int, lo=0, hi=2**64 - 1)
    replications: int = _key(_parse_number, 50, kind=int, lo=1, hi=MAX_REPLICATIONS)
    grid: int | None = _key(_parse_number, kind=int, lo=2, hi=MAX_GRID_POINTS)
    method: str = _key(_parse_choice, "all", choices=(*METHODS, "all"))
    m_list: tuple[int, ...] = _key(_parse_m_list, DEFAULT_M_LIST)
    counts: str | None = _key(_parse_text)
    out: str | None = _key(_parse_text)

    def amplitudes(self) -> DetectorPlaneAmplitudes:
        """Detector-plane amplitudes from (a, b) or from (alpha, beta, tau),
        within the model's mean-photon bound (see ``default_cutoff``)."""
        direct = self.a is not None or self.b is not None
        physical = self.alpha is not None or self.tau is not None
        if direct and physical:
            raise ConfigError("give either a and b, or alpha, beta and tau, not both")
        if direct:
            if self.a is None or self.b is None:
                raise ConfigError("both a and b are required when giving detector amplitudes")
            amps = DetectorPlaneAmplitudes(a=self.a, b=self.b)
        elif physical:
            if self.alpha is None or self.beta is None or self.tau is None:
                raise ConfigError("alpha, beta and tau are all required for physical parameters")
            amps = detector_amplitudes(ReceiverParams(beta=self.beta, alpha=self.alpha, tau=self.tau))
        elif self.beta is not None and self.command == "discriminate":
            # tau -> 1 proxy with matched LO: a = b = beta
            amps = DetectorPlaneAmplitudes(a=self.beta, b=self.beta)
        else:
            raise ConfigError("amplitudes unspecified: give a and b, or alpha, beta and tau")
        try:
            default_cutoff(amps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return amps

    def sim_config(self, M: int) -> SimConfig:
        """The simulated experiment of this run, with M shots per record."""
        return SimConfig(
            amps=self.amplitudes(), phi_star=self.phi, M=M, seed=self.seed, gamma=self.gamma,
            replications=self.replications,
        )

    def require(self, *keys: str):
        missing = [k for k in keys if getattr(self, k) is None]
        if missing:
            raise ConfigError(
                f"subcommand '{self.command}' requires: {', '.join(missing)}"
            )


# config key -> parser(key, raw string) -> typed value, in declaration order
_CONVERTERS = {f.name: f.metadata["parse"] for f in dataclasses.fields(RunConfig) if f.metadata}


def _read_lines(path: str, error: type[ValueError], what: str) -> list[str]:
    """A UTF-8 text file's lines; ``error`` names the ``what`` file it cannot read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from None


def _read_config_file(path: str, command: str) -> dict[str, str]:
    """Flat key=value file of the keys ``command`` takes; '#' starts a comment,
    later keys override earlier ones."""
    keys = _keys(command)
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(_read_lines(path, ConfigError, "config"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONVERTERS:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        if key not in keys:
            raise ConfigError(
                f"{path}:{lineno}: subcommand '{command}' does not take config key '{key}'"
            )
        pairs[key] = value
    return pairs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kennedyrx",
        description="Kennedy-like BPSK receiver simulator with Bayesian phase monitoring",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, _, _) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_line)
        sp.add_argument("--config", help="flat key=value config file")
        for key in _keys(command):
            flag = "--" + key.replace("_", "-")
            sp.add_argument(flag, dest=key, default=None, metavar=key.upper())
    return parser


def _is_real(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--key=value`` for each long flag followed by a negative real.

    argparse takes only plain negative numbers such as -1 or -0.5 for
    values; a token like -1e-05, which the comment block writes for small
    negative reals, it reads as an option."""
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if token.startswith("-") and _is_real(token) and prev.startswith("--") and "=" not in prev:
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def parse_config(argv=None) -> RunConfig:
    """Merge config file and flags (flags win) into a validated RunConfig."""
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _build_parser().parse_args(_attach_negative_values(argv))
    raw = _read_config_file(ns.config, ns.command) if ns.config else {}
    for key in _keys(ns.command):
        value = getattr(ns, key)
        if value is not None:
            raw[key] = value
    fields: dict[str, object] = {"command": ns.command}
    for key, value in raw.items():
        fields[key] = _CONVERTERS[key](key, value)
    return RunConfig(**fields)


def load_counts(path: str) -> CountRecord:
    """Read a counts file: one nonnegative integer per line, '#' comments allowed."""
    values: list[int] = []
    for lineno, raw in enumerate(_read_lines(path, DataError, "counts"), 1):
        token = raw.strip()
        if not token or token.startswith("#"):
            continue
        if not (token.isascii() and token.isdigit()):
            raise DataError(f"{path}:{lineno}: not a nonnegative integer count: {token!r}")
        digits = token.lstrip("0") or "0"
        # the length test keeps int() clear of its digit limit
        if len(digits) > 19 or int(digits) >= 2**63:
            raise DataError(f"{path}:{lineno}: count exceeds 2**63 - 1")
        values.append(int(digits))
    if not values:
        raise DataError(f"{path}: no counts found")
    return CountRecord(counts=np.asarray(values, dtype=np.int64))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _config_block(cfg: RunConfig, keys: tuple[str, ...]) -> list[str]:
    lines = [f"# kennedyrx {cfg.command}"]
    for key in keys:
        value = getattr(cfg, key)
        if value is not None:
            lines.append(f"# {key}={_fmt(value)}")
    return lines


def _write_lines(path: str, lines: list[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _write_csv(path: str, comments: list[str], header: list[str], rows) -> None:
    lines = list(comments)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_lines(path, lines)


def read_table(path: str):
    """Re-parse an emitted CSV: returns (comment key/value dict, header, float rows).

    Non-numeric cells are kept as strings; numeric parsing uses float() so a
    round trip through :func:`_write_csv` is lossless.
    """
    meta: dict[str, str] = {}
    body: list[str] = []
    for line in _read_lines(path, DataError, "table"):
        line = line.rstrip("\n")
        if line.startswith("#"):
            stripped = line[1:].strip()
            if "=" in stripped:
                key, value = stripped.split("=", 1)
                meta[key.strip()] = value.strip()
            continue
        if line:
            body.append(line)
    if not body:
        raise DataError(f"{path}: no table found")
    header = body[0].split(",")
    rows = []
    for line in body[1:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return meta, header, rows


# --- subcommand implementations -------------------------------------------


def _cmd_simulate(cfg: RunConfig, comments: list[str]) -> int:
    record = sample_counts(cfg.sim_config(cfg.M))
    _write_lines(cfg.out, comments + list(map(str, record.counts.tolist())))
    print(f"wrote {record.sample_size} counts to {cfg.out}")
    return EXIT_OK


def _estimate_summary(tag: str, est, crlb: float | None, m_total: int) -> str:
    crlb = "nan" if crlb is None else _fmt(crlb)
    skew = "nan" if est.skewness is None else _fmt(est.skewness)
    return (
        f"{tag}: mean={_fmt(est.mean)} variance={_fmt(est.variance)} "
        f"crlb={crlb} skewness={skew} M={m_total}"
    )


def _require_resolved(variance: float, grid: PhaseGrid, what: str) -> None:
    """Raise :class:`UnresolvedPosteriorError` when a posterior sd is below half
    the grid step h: the posterior then sits on one or two grid points, and
    its moments are the grid's, not the record's."""
    h = (grid.hi - grid.lo) / (grid.size - 1)
    if variance < (h / 2) ** 2:
        raise UnresolvedPosteriorError(
            f"{what} posterior sd {math.sqrt(variance):.2g} is below half the grid step "
            f"{h:.2g}; rerun with a larger --grid"
        )


def _cmd_estimate(cfg: RunConfig, comments: list[str]) -> int:
    amps = cfg.amplitudes()
    record = load_counts(cfg.counts)
    grid = PhaseGrid() if cfg.grid is None else PhaseGrid(size=cfg.grid)
    m_total = record.sample_size

    densities, summaries = [], []
    for tag, loglik, fisher in (
        ("pnr", log_likelihood_pnr(record, amps, cfg.gamma, grid), fisher_pnr),
        ("onoff", log_likelihood_onoff(record, amps, cfg.gamma, grid), fisher_onoff),
    ):
        post = posterior(loglik, grid)
        est = bayes_estimate(post)
        _require_resolved(est.variance, grid, tag)
        crlb = crlb_variance(fisher(amps, est.mean, cfg.gamma), m_total)
        densities.append(post.density)
        summaries.append(_estimate_summary(tag, est, crlb, m_total))

    comments = comments + ["# " + line for line in summaries]
    rows = zip(grid.points, *densities)
    _write_csv(cfg.out, comments, ["phi", "density_pnr", "density_onoff"], rows)
    print("\n".join(summaries))
    print(f"wrote posterior table to {cfg.out}")
    return EXIT_OK


def _cmd_fisher(cfg: RunConfig, comments: list[str]) -> int:
    amps = cfg.amplitudes()
    size = cfg.grid if cfg.grid is not None else 200
    phis = PhaseGrid(size=size).points
    rows = zip(phis, fisher_pnr(amps, phis, cfg.gamma), fisher_onoff(amps, phis, cfg.gamma))
    _write_csv(cfg.out, comments, ["phi", "F_pnr", "F_onoff"], rows)
    print(f"wrote {size} Fisher-information rows to {cfg.out}")
    return EXIT_OK


def _require_fano_information(amps, gamma: float) -> None:
    """A config error where F carries no phase to invert: 4 a^2 b^2 is 0 in
    double precision, or gamma is pi or 2 pi (see ``_invertible_fano_terms``)."""
    try:
        _invertible_fano_terms(amps, gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _write_summary(cfg: RunConfig, comments: list[str], header: list[str], row, what: str) -> None:
    """The one-row CSV of a summary, when ``out`` is given."""
    if cfg.out:
        _write_csv(cfg.out, comments, header, [row])
        print(f"wrote {what} to {cfg.out}")


def _cmd_fano(cfg: RunConfig, comments: list[str]) -> int:
    amps = cfg.amplitudes()
    _require_fano_information(amps, cfg.gamma)
    record = load_counts(cfg.counts)
    if record.sample_size < 3:
        raise DataError(
            f"{cfg.counts}: fano-inversion needs at least 3 shots for its jackknife "
            f"variance, got {record.sample_size}"
        )
    est = fano_inversion_estimate(record, amps, cfg.gamma)
    fano = empirical_fano(record)
    print(
        f"fano: value={_fmt(fano)} mean={_fmt(est.mean)} variance={_fmt(est.variance)} "
        f"clamped={str(est.clamped).lower()} M={record.sample_size}"
    )
    _write_summary(
        cfg, comments, ["M", "fano", "mean", "variance", "clamped"],
        (record.sample_size, fano, est.mean, est.variance, est.clamped), "estimate",
    )
    return EXIT_OK


def _cmd_discriminate(cfg: RunConfig, comments: list[str]) -> int:
    sim = cfg.sim_config(cfg.M)
    bits = stream(cfg.seed, 1).integers(0, 2, size=cfg.M)
    result = run_discrimination(sim, bits)
    beta_ref = cfg.beta if cfg.beta is not None else sim.amps.b
    analytic = error_probability(beta_ref, cfg.phi)
    print(
        f"discriminate: errors={result.n_errors}/{result.sample_size} "
        f"rate={_fmt(result.error_rate)} se={_fmt(result.std_error)} "
        f"analytic={_fmt(analytic)} (beta={_fmt(beta_ref)})"
    )
    _write_summary(
        cfg, comments, ["M", "n_errors", "error_rate", "std_error", "analytic_error"],
        (result.sample_size, result.n_errors, result.error_rate, result.std_error, analytic),
        "discrimination summary",
    )
    return EXIT_OK


def _cmd_sweep(cfg: RunConfig, comments: list[str]) -> int:
    if fold_phase(cfg.phi) == 0.0:
        raise ConfigError("config key 'phi': sweep needs a phase that is not a multiple of pi")
    sim = cfg.sim_config(cfg.m_list[-1])
    grid = PhaseGrid() if cfg.grid is None else PhaseGrid(size=cfg.grid)
    methods = METHODS if cfg.method == "all" else (cfg.method,)
    if "fano-inversion" in methods:
        _require_fano_information(sim.amps, cfg.gamma)
        if cfg.m_list[0] < 3:
            raise ConfigError(
                "config key 'm_list': fano-inversion needs at least 3 shots per record "
                "for its jackknife variance"
            )
    results = run_convergence_sweeps(sim, methods, cfg.m_list, grid=grid)
    for result in results:
        if result.method != "fano-inversion":
            i, rep = np.unravel_index(result.variances.argmin(), result.variances.shape)
            _require_resolved(result.variances[i, rep], grid,
                              f"{result.method} (M={result.m_list[i]}, replication {rep})")
    for result in results:
        method = result.method
        rows = [
            (r.M, r.mean_ratio, r.sd_of_estimates, r.mean_variance,
             math.nan if r.crlb is None else r.crlb)
            for r in result.rows
        ]
        path = f"{cfg.out}_{method}.csv"
        _write_csv(path, comments, ["M", "mean_ratio", "sd_of_estimates", "mean_variance", "crlb"], rows)
        # Python floats from tolist(): formatting numpy scalars is slower
        rep_rows = [
            (m, rep, estimate, variance)
            for m, estimates, variances in zip(
                result.m_list, result.estimates.tolist(), result.variances.tolist()
            )
            for rep, (estimate, variance) in enumerate(zip(estimates, variances))
        ]
        rep_path = f"{cfg.out}_{method}_reps.csv"
        _write_csv(rep_path, comments, ["M", "replication", "estimate", "variance"], rep_rows)
        print(f"wrote {method} sweep to {path} and {rep_path}")
    return EXIT_OK


# subcommand -> (handler, help line, required keys, keys its comment block
# records after the amplitude keys), in the order the parser lists them; the
# keys a subcommand takes are the amplitude keys and these recorded keys
_COMMANDS = {
    "simulate": (_cmd_simulate, "draw a detection record and write a counts file",
                 ("phi", "M", "seed", "out"), ("phi", "gamma", "M", "seed", "out")),
    "estimate": (_cmd_estimate, "Bayesian phase estimate from a counts file (both detector kinds)",
                 ("counts", "out"), ("gamma", "grid", "counts", "out")),
    "fisher": (_cmd_fisher, "tabulate PNR and on/off Fisher information over a phase grid",
               ("out",), ("gamma", "grid", "out")),
    "fano": (_cmd_fano, "Fano-inversion phase estimate from a counts file",
             ("counts",), ("gamma", "counts", "out")),
    "discriminate": (_cmd_discriminate, "empirical discrimination error vs the analytic formula",
                     ("phi", "M", "seed"), ("phi", "gamma", "M", "seed", "out")),
    "sweep": (_cmd_sweep, "estimator convergence sweep over sample sizes", ("phi", "seed", "out"),
              ("phi", "gamma", "seed", "replications", "grid", "method", "m_list", "out")),
}


def _keys(command: str) -> tuple[str, ...]:
    """The config keys ``command`` takes, in the order its comment block records them."""
    return ("a", "b", "alpha", "beta", "tau", *_COMMANDS[command][3])


def dispatch(cfg: RunConfig) -> int:
    """Run one subcommand; returns the process exit status."""
    handler, _, required, _ = _COMMANDS[cfg.command]
    cfg.require(*required)
    return handler(cfg, _config_block(cfg, _keys(cfg.command)))


def main(argv=None) -> int:
    try:
        try:
            cfg = parse_config(argv)
        except SystemExit as exc:
            # argparse has printed its usage error (status 2) or the help (0)
            return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
        return dispatch(cfg)
    except ConfigError as exc:
        print(f"kennedyrx: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"kennedyrx: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DegenerateEvidenceError, UndefinedFanoError, UnresolvedPosteriorError) as exc:
        print(f"kennedyrx: numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
