import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kennedyrx import cli
from kennedyrx.cli import (
    ConfigError,
    DataError,
    load_counts,
    parse_config,
    read_table,
)
from kennedyrx.estimation import PhaseGrid, fano_inversion_estimate
from kennedyrx.montecarlo import SimConfig, sample_counts
from kennedyrx.photonstats import DetectorPlaneAmplitudes

SQRT2 = math.sqrt(2.0)
SRC = str(Path(__file__).resolve().parents[1] / "src")
# 80 shots drawn by `kennedyrx simulate --a 1.2 --b 0.7 --phi 0.3 --M 80 --seed 11`
COUNTS_80 = str(Path(__file__).resolve().parent / "data" / "counts_80.txt")


def run_python(code: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=timeout
    )


class TestParseConfig:
    def test_full_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "a=1.12\nb=0.79\nphi=0.25\ngamma=0.7853981633974483\nM=4000\nseed=42\n"
        )
        cfg = parse_config(["simulate", "--config", str(cfg_file), "--out", "x.txt"])
        assert cfg.a == 1.12 and cfg.b == 0.79
        assert cfg.phi == 0.25
        assert cfg.gamma == pytest.approx(math.pi / 4)
        assert cfg.M == 4000 and cfg.seed == 42

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("phi=0.25\na=1\nb=1\nM=10\nseed=1\n")
        cfg = parse_config(["simulate", "--config", str(cfg_file), "--phi", "0.3", "--out", "x"])
        assert cfg.phi == 0.3

    def test_tau_range_error(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("tau=1.5\n")
        with pytest.raises(ConfigError, match=r"tau must lie in \(0,1\)"):
            parse_config(["fisher", "--config", str(cfg_file)])

    def test_unknown_key_is_hard_error(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("amplitude=3\n")
        with pytest.raises(ConfigError, match="unknown config key 'amplitude'"):
            parse_config(["fisher", "--config", str(cfg_file)])

    def test_malformed_number_names_key(self):
        with pytest.raises(ConfigError, match="config key 'a'"):
            parse_config(["fisher", "--a", "fast"])

    def test_detector_key_is_gone(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("detector=pnr\n")
        with pytest.raises(ConfigError, match="unknown config key 'detector'"):
            parse_config(["simulate", "--config", str(cfg_file)])

    def test_comments_and_blank_lines(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("# model\n\na=1.0  # LO\nb = 0.5\n")
        cfg = parse_config(["fisher", "--config", str(cfg_file)])
        assert cfg.a == 1.0 and cfg.b == 0.5

    def test_amplitude_resolution_conflict(self):
        cfg = parse_config(["fisher", "--a", "1", "--b", "1", "--tau", "0.5"])
        with pytest.raises(ConfigError, match="not both"):
            cfg.amplitudes()

    def test_physical_parameters_resolve(self):
        cfg = parse_config(["fisher", "--alpha", "2", "--beta", "1", "--tau", "0.99"])
        amps = cfg.amplitudes()
        assert amps.a == pytest.approx(0.2)
        assert amps.b == pytest.approx(math.sqrt(0.99))


class TestCommandKeys:
    """A subcommand takes the keys ``cli._COMMANDS`` declares for it, as flags
    and as config-file lines, and exits 2 on every other key, writing nothing."""

    VALUES = {"a": "1", "b": "1", "alpha": "1", "beta": "1", "tau": "0.5", "phi": "0.3",
              "gamma": "0.5", "M": "10", "seed": "3", "replications": "2", "grid": "33",
              "method": "bayes-pnr", "m_list": "3,5", "counts": COUNTS_80, "out": "x.csv"}
    # the rest of a run of each subcommand that exits 0
    RUNS = {
        "simulate": ["--phi", "0.3", "--M", "10", "--seed", "3"],
        "estimate": ["--counts", COUNTS_80, "--grid", "101"],
        "fisher": ["--grid", "5"],
        "fano": ["--counts", COUNTS_80],
        "discriminate": ["--phi", "0.3", "--M", "10", "--seed", "3"],
        "sweep": ["--phi", "0.3", "--seed", "3", "--replications", "2", "--m-list", "30,100",
                  "--grid", "33"],
    }

    def run(self, directory, command, extra):
        return run_cli([command, "--a", "1", "--b", "1", *self.RUNS[command], *extra,
                        "--out", str(directory / "out")])

    def test_key_counts(self):
        counts = {command: len(cli._keys(command)) for command in cli._COMMANDS}
        assert counts == {"simulate": 10, "estimate": 9, "fisher": 8, "fano": 8,
                          "discriminate": 10, "sweep": 13}

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_each_run_exits_0(self, tmp_path, command):
        assert self.run(tmp_path, command, []) == 0
        assert list(tmp_path.iterdir())

    @pytest.mark.parametrize("key", list(cli._CONVERTERS))
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_a_key_is_taken_only_where_declared(self, tmp_path, capsys, command, key):
        value = self.VALUES[key]
        config = tmp_path / "key.cfg"
        config.write_text(f"{key}={value}\n")
        ways = (["--" + key.replace("_", "-"), value], ["--config", str(config)])
        if key in cli._keys(command):
            for way in ways:
                parsed = getattr(parse_config([command, *way]), key)
                assert parsed == cli._CONVERTERS[key](key, value)
            return
        for way, names in zip(ways, ("--" + key.replace("_", "-"), f"'{key}'")):
            assert self.run(tmp_path, command, way) == 2
            err = capsys.readouterr().err
            assert names in err and "Traceback" not in err
            assert [p.name for p in tmp_path.iterdir()] == ["key.cfg"]


class TestLoadCounts:
    def test_plain_counts(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("0\n2\n0\n5\n")
        record = load_counts(str(path))
        assert record.counts.tolist() == [0, 2, 0, 5]

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("# header\n\n3\n")
        assert load_counts(str(path)).counts.tolist() == [3]

    def test_negative_count_reports_line(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("1\n-2\n")
        with pytest.raises(DataError, match=":2:"):
            load_counts(str(path))

    def test_non_integer_token(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("1\n2.5\n")
        with pytest.raises(DataError, match=":2:"):
            load_counts(str(path))

    def test_empty_payload(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("# nothing\n")
        with pytest.raises(DataError, match="no counts"):
            load_counts(str(path))

    @pytest.mark.parametrize("token", [str(2**63), "9" * 5000], ids=["2**63", "5000-digits"])
    def test_count_beyond_int64_is_data_error(self, tmp_path, token):
        path = tmp_path / "counts.txt"
        path.write_text(f"1\n{token}\n")
        with pytest.raises(DataError, match=":2: count exceeds"):
            load_counts(str(path))
        code = run_cli([
            "estimate", "--counts", str(path), "--a", "1", "--b", "1",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_counts(str(tmp_path / "absent.txt"))


def run_cli(args):
    return cli.main(args)


class TestSimulate:
    def test_round_trip_preserves_record(self, tmp_path):
        out = tmp_path / "counts.txt"
        code = run_cli([
            "simulate", "--a", "1.12", "--b", "0.79", "--phi", "0.25",
            "--M", "500", "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        loaded = load_counts(str(out))
        cfg = SimConfig(
            amps=DetectorPlaneAmplitudes(1.12, 0.79), phi_star=0.25, M=500, seed=9
        )
        assert np.array_equal(loaded.counts, sample_counts(cfg).counts)


class TestEstimate:
    def test_end_to_end(self, tmp_path, capsys):
        counts = tmp_path / "counts.txt"
        run_cli([
            "simulate", "--a", "1.414213562373095", "--b", "1.414213562373095",
            "--phi", "0.3", "--M", "4000", "--seed", "12", "--out", str(counts),
        ])
        out = tmp_path / "post.csv"
        code = run_cli([
            "estimate", "--counts", str(counts),
            "--a", "1.414213562373095", "--b", "1.414213562373095", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "pnr: mean=" in printed and "onoff: mean=" in printed
        meta, header, rows = read_table(str(out))
        assert header == ["phi", "density_pnr", "density_onoff"]
        assert len(rows) == PhaseGrid().size
        table = np.asarray(rows, dtype=float)
        # densities integrate to one on the grid
        for col in (1, 2):
            assert np.trapezoid(table[:, col], table[:, 0]) == pytest.approx(1.0, abs=1e-8)
        # summary mean is recorded in the comment block and is near the truth
        pnr_mean = float(meta["pnr: mean"].split()[0])
        assert abs(pnr_mean - 0.3) < 0.05

    def test_degenerate_counts_exit_code(self, tmp_path):
        counts = tmp_path / "counts.txt"
        counts.write_text("3\n")
        out = tmp_path / "post.csv"
        code = run_cli([
            "estimate", "--counts", str(counts), "--a", "0", "--b", "0", "--out", str(out)
        ])
        assert code == 4

    @pytest.mark.parametrize(
        "amps, record, grid, code",
        [
            # the golden record: pnr posterior sd 0.025, which is 0.02 grid
            # steps on 11 points (the printed variance was 9.4e-6) and 0.63
            # steps on 41 points
            (["--a", "1.12", "--b", "0.79"], ["--phi", "0.25", "--M", "4000", "--seed", "42"],
             ["--grid", "11"], 4),
            (["--a", "1.12", "--b", "0.79"], ["--phi", "0.25", "--M", "4000", "--seed", "42"],
             ["--grid", "41"], 0),
            # CRLB sd 1.1e-4 against the default grid's step of 7.9e-4: the
            # printed variance was 3.2e-17 against a CRLB of 1.25e-8
            (["--a", "20", "--b", "20"], ["--phi", "0.3", "--M", "100000", "--seed", "1"], [], 4),
        ],
        ids=["coarse-grid", "resolved", "bright"],
    )
    def test_unresolved_posterior_exits_4(self, tmp_path, capsys, amps, record, grid, code):
        counts, out = tmp_path / "counts.txt", tmp_path / "post.csv"
        run_cli(["simulate", *amps, *record, "--out", str(counts)])
        capsys.readouterr()
        assert run_cli(["estimate", "--counts", str(counts), *amps, *grid, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert ("pnr posterior sd" in err and "--grid" in err) == (code == 4)
        assert "Traceback" not in err
        assert out.exists() == (code == 0)

    def test_huge_count_exits_4_in_bounded_memory(self, tmp_path):
        # a dense pmf table up to n = 10^8 would need 1.6 TB on the default grid
        counts = tmp_path / "counts.txt"
        counts.write_text("3\n100000000\n0\n")
        tracemalloc.start()
        try:
            code = run_cli([
                "estimate", "--counts", str(counts), "--a", repr(SQRT2), "--b", repr(SQRT2),
                "--out", str(tmp_path / "post.csv"),
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert peak < 64 * 2**20


class TestFisherCommand:
    def test_endpoints_are_zero(self, tmp_path):
        out = tmp_path / "fisher.csv"
        code = run_cli(["fisher", "--a", "1.12", "--b", "0.79", "--grid", "200", "--out", str(out)])
        assert code == 0
        _, header, rows = read_table(str(out))
        assert header == ["phi", "F_pnr", "F_onoff"]
        assert len(rows) == 200
        first, last = rows[0], rows[-1]
        assert first[1] < 1e-9 and first[2] < 1e-9
        assert last[1] < 1e-9 and last[2] < 1e-9

    def test_gamma_above_2pi_names_the_exact_bound(self, tmp_path, capsys):
        # 6.283186 lies above 2 pi = 6.283185307179586, which rounds to it at 6 digits
        out = tmp_path / "fisher.csv"
        code = run_cli(["fisher", "--a", "1", "--b", "1", "--gamma", "6.283186", "--out", str(out)])
        assert code == 2
        assert "at most 6.283185307179586, got 6.283186" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_grid_succeeds(self, tmp_path):
        out = tmp_path / "fisher.csv"
        code = run_cli(["fisher", "--a", "1.12", "--b", "0.79", "--grid", "20001", "--out", str(out)])
        assert code == 0
        _, _, rows = read_table(str(out))
        assert len(rows) == 20001
        assert rows[-1][0] == math.pi / 2


class TestGridBound:
    """Grids above MAX_GRID_POINTS are config errors, caught before any table."""

    @pytest.mark.parametrize("size", ["20002", "1000000000000"])
    @pytest.mark.parametrize("command", ["fisher", "estimate", "sweep"])
    def test_oversized_grid_exits_2_quickly(self, tmp_path, command, size):
        counts = tmp_path / "counts.txt"
        counts.write_text("0\n1\n2\n")
        out = tmp_path / "out"
        args = {
            "fisher": [],
            "estimate": ["--counts", str(counts)],
            "sweep": ["--phi", "0.3", "--seed", "1", "--replications", "2", "--m-list", "100"],
        }[command]
        args = [command, "--a", "1.12", "--b", "0.79", *args, "--grid", size, "--out", str(out)]
        # the timer starts after the import, so only the command itself is timed
        proc = run_python(
            "import json, sys, time\n"
            "from kennedyrx import cli\n"
            "t = time.perf_counter()\n"
            f"rc = cli.main({args!r})\n"
            "print(json.dumps([rc, time.perf_counter() - t]))\n",
        )
        assert "Traceback" not in proc.stderr
        assert f"at most {cli.MAX_GRID_POINTS}" in proc.stderr
        rc, seconds = json.loads(proc.stdout.splitlines()[-1])
        assert rc == 2 and proc.returncode == 0
        assert seconds < 2.0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.txt"]


class TestRecordSizeBound:
    """Records above MAX_SHOTS and sweeps above MAX_REPLICATIONS are config
    errors, caught before anything is allocated."""

    @pytest.mark.parametrize("over", ["bound+1", "1e15"])
    @pytest.mark.parametrize(
        "command, key",
        [("simulate", "M"), ("discriminate", "M"), ("sweep", "m_list"), ("sweep", "replications")],
    )
    def test_oversized_record_exits_2_quickly(self, tmp_path, command, key, over):
        bound = cli.MAX_REPLICATIONS if key == "replications" else cli.MAX_SHOTS
        flags = {"phi": "0.3", "seed": "1", "M": "100", "replications": "2", "m_list": "100"}
        flags[key] = str(bound + 1 if over == "bound+1" else 10**15)
        args = [command, "--a", "1.12", "--b", "0.79", "--out", str(tmp_path / "out")]
        for k, v in flags.items():
            if k in cli._keys(command):  # any other key is an error of its own
                args += ["--" + k.replace("_", "-"), v]
        # the timer starts after the import, so only the command itself is timed
        proc = run_python(
            "import json, sys, time\n"
            "from kennedyrx import cli\n"
            "t = time.perf_counter()\n"
            f"rc = cli.main({args!r})\n"
            "print(json.dumps([rc, time.perf_counter() - t]))\n",
        )
        assert "Traceback" not in proc.stderr
        assert f"at most {bound}" in proc.stderr
        rc, seconds = json.loads(proc.stdout.splitlines()[-1])
        assert rc == 2 and proc.returncode == 0
        assert seconds < 2.0
        assert not list(tmp_path.iterdir())

    def test_bounds_themselves_parse(self):
        assert parse_config(["simulate", "--M", str(cli.MAX_SHOTS)]).M == cli.MAX_SHOTS
        cfg = parse_config([
            "sweep", "--m-list", f"100,{cli.MAX_SHOTS}",
            "--replications", str(cli.MAX_REPLICATIONS),
        ])
        assert cfg.m_list == (100, cli.MAX_SHOTS)
        assert cfg.replications == cli.MAX_REPLICATIONS


class TestFanoCommand:
    def test_reports_estimate(self, tmp_path, capsys):
        counts = tmp_path / "counts.txt"
        run_cli([
            "simulate", "--a", "1.414213562373095", "--b", "1.414213562373095",
            "--phi", "0.3", "--M", "5000", "--seed", "4", "--out", str(counts),
        ])
        out = tmp_path / "fano.csv"
        code = run_cli([
            "fano", "--counts", str(counts),
            "--a", "1.414213562373095", "--b", "1.414213562373095", "--out", str(out),
        ])
        assert code == 0
        assert "fano: value=" in capsys.readouterr().out
        _, header, rows = read_table(str(out))
        assert header == ["M", "fano", "mean", "variance", "clamped"]
        assert rows[0][0] == 5000

    def test_noisy_record_prints_the_library_estimate(self, tmp_path, capsys):
        # without gamma the inversion read this record as phi = 0.608
        counts, out = tmp_path / "counts.txt", tmp_path / "fano.csv"
        amps = ["--a", repr(SQRT2), "--b", repr(SQRT2)]
        run_cli(["simulate", *amps, "--phi", "0.3", "--gamma", "2.0", "--M", "30000",
                 "--seed", "5", "--out", str(counts)])
        capsys.readouterr()
        assert run_cli(["fano", "--counts", str(counts), *amps, "--gamma", "2.0",
                        "--out", str(out)]) == 0
        est = fano_inversion_estimate(
            load_counts(str(counts)), DetectorPlaneAmplitudes(SQRT2, SQRT2), 2.0
        )
        assert f"mean={est.mean:.17g} variance={est.variance:.17g}" in capsys.readouterr().out
        meta, _, rows = read_table(str(out))
        assert meta["gamma"] == "2" and rows[0][2] == est.mean
        assert abs(est.mean - 0.3) < 3.0 * math.sqrt(est.variance)

    @pytest.mark.parametrize("gamma", ["3.141592653589793", "6.283185307179586"])
    def test_no_phase_information_exits_2(self, tmp_path, capsys, gamma):
        counts = tmp_path / "counts.txt"
        counts.write_text("0\n1\n2\n3\n")
        sweep = ["sweep", "--phi", "0.3", "--seed", "1", "--replications", "2", "--m-list", "30",
                 "--out", str(tmp_path / "sweep")]
        for args in (["fano", "--counts", str(counts), "--out", str(tmp_path / "fano.csv")], sweep):
            assert run_cli([*args, "--a", "1", "--b", "1", "--gamma", gamma]) == 2
            err = capsys.readouterr().err
            assert f"gamma={gamma}" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["counts.txt"]

    def test_all_zero_counts_exit_code(self, tmp_path):
        counts = tmp_path / "counts.txt"
        counts.write_text("0\n" * 10)
        code = run_cli(["fano", "--counts", str(counts), "--a", "1", "--b", "1"])
        assert code == 4

    def test_sweep_with_an_all_zero_record_exits_4(self, tmp_path, capsys):
        # about 0.01 photons per shot: some 3-shot records are all zero
        code = run_cli([
            "sweep", "--a", "0.05", "--b", "0.05", "--phi", "0.3", "--seed", "67",
            "--replications", "20", "--m-list", "3,10", "--grid", "33",
            "--out", str(tmp_path / "sweep"),
        ])
        err = capsys.readouterr().err
        assert code == 4
        assert "Fano factor undefined" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "amplitudes, counts, code, message",
        [
            # the counts file does not exist: the amplitudes fail first
            (["--a", "0", "--b", "1"], None, 2, "a and b > 0"),
            (["--a", "1", "--b", "1"], "1\n2\n", 3, "at least 3 shots"),
            # 4 a^2 b^2 underflows to 0, which the inversion divides by
            (["--a", "1e-300", "--b", "1"], "1\n2\n3\n", 2, "a and b > 0"),
        ],
        ids=["amplitude-zero", "two-shots", "amplitude-underflow"],
    )
    def test_bad_inputs_exit_without_traceback(self, tmp_path, amplitudes, counts, code, message):
        path = tmp_path / "counts.txt"
        if counts is not None:
            path.write_text(counts)
        args = ["fano", "--counts", str(path), *amplitudes]
        proc = run_python(f"import sys\nfrom kennedyrx import cli\nsys.exit(cli.main({args!r}))\n")
        assert proc.returncode == code
        assert message in proc.stderr and "Traceback" not in proc.stderr


class TestDiscriminateCommand:
    def test_matches_analytic(self, tmp_path, capsys):
        out = tmp_path / "disc.csv"
        code = run_cli([
            "discriminate", "--beta", "1", "--phi", "0", "--M", "100000",
            "--seed", "6", "--out", str(out),
        ])
        assert code == 0
        _, header, rows = read_table(str(out))
        assert header == ["M", "n_errors", "error_rate", "std_error", "analytic_error"]
        m, _, rate, se, analytic = rows[0]
        assert analytic == pytest.approx(0.5 * math.exp(-4.0), rel=1e-12)
        assert abs(rate - analytic) <= 3.0 * math.sqrt(analytic * (1 - analytic) / m)


class TestSweepCommand:
    def test_writes_all_method_files(self, tmp_path):
        prefix = tmp_path / "sweep"
        code = run_cli([
            "sweep", "--a", "1.414213562373095", "--b", "1.414213562373095",
            "--phi", "0.3", "--seed", "77", "--replications", "3",
            "--m-list", "100,300", "--out", str(prefix),
        ])
        assert code == 0
        for method in ("bayes-pnr", "bayes-onoff", "fano-inversion"):
            meta, header, rows = read_table(f"{prefix}_{method}.csv")
            assert header == ["M", "mean_ratio", "sd_of_estimates", "mean_variance", "crlb"]
            assert [r[0] for r in rows] == [100.0, 300.0]
            _, rep_header, rep_rows = read_table(f"{prefix}_{method}_reps.csv")
            assert rep_header == ["M", "replication", "estimate", "variance"]
            assert len(rep_rows) == 6
            assert meta["method"] == "all"

    @pytest.mark.parametrize("phi", ["0", repr(math.pi)])
    def test_phase_folding_to_zero_is_config_error(self, tmp_path, phi):
        code = run_cli([
            "sweep", "--a", "1", "--b", "1", "--phi", phi, "--seed", "1",
            "--m-list", "100", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--a", "1", "--b", "1", "--m-list", "2"], "at least 3 shots"),
            (["--a", "0", "--b", "1", "--m-list", "100"], "a and b > 0"),
            (["--a", "5e-324", "--b", "1.4142135623730951", "--m-list", "3,5"], "a and b > 0"),
        ],
    )
    def test_fano_inputs_are_config_errors(self, tmp_path, capsys, args, message):
        prefix = tmp_path / "sweep"
        code = run_cli([
            "sweep", *args, "--phi", "0.3", "--seed", "1", "--replications", "2",
            "--out", str(prefix),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("method, code", [("bayes-pnr", 4), ("all", 4), ("fano-inversion", 0)])
    def test_unresolved_posterior_exits_4(self, tmp_path, capsys, method, code):
        # a = b = 20, M = 30000: posterior sd ~2e-4 on the default grid's
        # step of 7.9e-4; the Fano jackknife variance is not a posterior's
        prefix = tmp_path / "sweep"
        assert run_cli([
            "sweep", "--a", "20", "--b", "20", "--phi", "0.3", "--seed", "7",
            "--replications", "2", "--m-list", "30000", "--method", method, "--out", str(prefix),
        ]) == code
        err = capsys.readouterr().err
        assert ("bayes-pnr (M=30000, replication" in err and "--grid" in err) == (code == 4)
        assert bool(list(tmp_path.iterdir())) == (code == 0)

    @pytest.mark.parametrize("gamma", ["0.5", "2"])
    def test_fano_inversion_reads_gamma(self, tmp_path, gamma):
        # the noiseless inversion gave mean ratios of 1.10 (gamma 0.5) and
        # 1.98 (gamma 2) here; 50 replications, so three standard errors of
        # the mean estimate, relative to phi* = 0.3, bound the gap
        prefix = tmp_path / "sweep"
        assert run_cli([
            "sweep", "--a", repr(SQRT2), "--b", repr(SQRT2), "--phi", "0.3", "--gamma", gamma,
            "--seed", "7", "--method", "fano-inversion", "--m-list", "30000",
            "--replications", "50", "--out", str(prefix),
        ]) == 0
        _, _, rows = read_table(f"{prefix}_fano-inversion.csv")
        _, mean_ratio, sd, _, _ = rows[0]
        assert abs(mean_ratio - 1.0) <= 3.0 * sd / (math.sqrt(50) * 0.3)

    def test_fano_checks_skip_other_methods(self, tmp_path):
        code = run_cli([
            "sweep", "--a", "0", "--b", "1", "--phi", "0.3", "--seed", "1",
            "--replications", "2", "--m-list", "2", "--method", "bayes-pnr",
            "--out", str(tmp_path / "sweep"),
        ])
        assert code == 0


class TestOutputContracts:
    def test_reparse_and_reserialize_is_lossless(self, tmp_path):
        out = tmp_path / "fisher.csv"
        run_cli(["fisher", "--a", "1.12", "--b", "0.79", "--grid", "50", "--out", str(out)])
        _, header, rows = read_table(str(out))
        original = out.read_text().splitlines()
        body = [line for line in original if not line.startswith("#")]
        rebuilt = [",".join(header)] + [
            ",".join(cli._fmt(v) for v in row) for row in rows
        ]
        assert rebuilt == body

    def test_missing_table_is_a_data_error(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(DataError, match="cannot read table file") as info:
            read_table(str(path))
        assert str(path) in str(info.value)

    def test_non_utf8_table_is_a_data_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"# kennedyrx fisher\nphi,F_pnr,F_onoff\n0,0,0\xff\n")
        with pytest.raises(DataError, match="cannot read table file") as info:
            read_table(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "args",
        [
            ["fisher", "--a", "1.12", "--b", "0.79", "--grid", "40"],
            ["simulate", "--a", "1.2", "--b", "0.7", "--phi", "0.25", "--M", "200", "--seed", "5"],
            [
                "discriminate", "--beta", "1", "--phi", "0.05", "--M", "2000", "--seed", "3",
            ],
            # a negative real in exponent notation, as the comment block writes it
            [
                "discriminate", "--beta", "1", "--phi", "-1.0000000000000001e-05", "--M", "10",
                "--seed", "1",
            ],
            [
                "estimate", "--alpha", "2", "--beta", "1", "--tau", "0.99", "--gamma", "0.4",
                "--grid", "60", "--counts", COUNTS_80,
            ],
            ["fano", "--a", "1.2", "--b", "0.7", "--counts", COUNTS_80],
        ],
    )
    def test_comment_block_replays_command(self, tmp_path, args):
        first = tmp_path / "first.out"
        second = tmp_path / "second.out"
        assert run_cli(args + ["--out", str(first)]) == 0
        # rebuild the command line from the recorded key=value comment block
        replay = [args[0]]
        for line in first.read_text().splitlines():
            if not line.startswith("# ") or "=" not in line:
                continue
            key, value = line[2:].split("=", 1)
            if key in cli._CONVERTERS and key != "out":
                replay += ["--" + key.replace("_", "-"), value]
        assert run_cli(replay + ["--out", str(second)]) == 0
        strip = lambda path: [
            line for line in path.read_text().splitlines() if not line.startswith("#")
        ]
        assert strip(first) == strip(second)

    def test_sweep_comment_block_replays_command(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert run_cli([
            "sweep", "--a", "1.2", "--b", "0.7", "--phi", "0.3", "--seed", "5",
            "--replications", "3", "--m-list", "50,100", "--grid", "50", "--method", "all",
            "--out", str(first),
        ]) == 0
        replay = ["sweep"]
        for line in Path(f"{first}_bayes-pnr.csv").read_text().splitlines():
            if line.startswith("# ") and "=" in line:
                key, value = line[2:].split("=", 1)
                if key in cli._CONVERTERS and key != "out":
                    replay += ["--" + key.replace("_", "-"), value]
        assert run_cli(replay + ["--out", str(second)]) == 0
        strip = lambda path: [
            line for line in Path(path).read_text().splitlines() if not line.startswith("#")
        ]
        for method in ("bayes-pnr", "bayes-onoff", "fano-inversion"):
            for suffix in (".csv", "_reps.csv"):
                body = strip(f"{first}_{method}{suffix}")
                assert len(body) > 1
                assert body == strip(f"{second}_{method}{suffix}")

    def test_config_error_exit_code(self):
        assert run_cli(["fisher", "--a", "-3", "--b", "1", "--out", "x.csv"]) == 2

    @pytest.mark.parametrize(
        "args", [["fisher", "--a"], ["fisher", "--grid", "-inf", "--nope"], ["nope"], []]
    )
    def test_argument_errors_return_2(self, capsys, args):
        # argparse's own rejections come back from main as 2, not as SystemExit
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert "usage: kennedyrx" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, code", [("--counts", 3), ("--config", 2)])
    def test_non_utf8_file_exits_with_its_code(self, tmp_path, capsys, flag, code):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"\xff\xfe")
        out = tmp_path / "e.csv"
        assert run_cli(["estimate", "--a", "1", "--b", "1", flag, str(path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert f"cannot read {flag[2:]} file {path}" in err and "Traceback" not in err
        assert not out.exists()

    def test_data_error_exit_code(self, tmp_path):
        code = run_cli([
            "estimate", "--counts", str(tmp_path / "nope.txt"),
            "--a", "1", "--b", "1", "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 3


class TestHugeAmplitudes:
    """Amplitudes whose largest mean exceeds MAX_MEAN_PHOTONS are config errors."""

    @pytest.mark.parametrize(
        "amps",
        [["--a", "1e200", "--b", "1"], ["--a", "1e10", "--b", "1"],
         ["--alpha", "1e200", "--beta", "1", "--tau", "0.5"]],
        ids=["a-overflows", "a-huge", "alpha-overflows"],
    )
    def test_simulate_exits_2_quickly_without_traceback(self, tmp_path, amps):
        args = ["simulate", *amps, "--phi", "0.3", "--M", "10", "--seed", "1",
                "--out", str(tmp_path / "x.txt")]
        # the timer starts after the import, so only the command itself is timed
        proc = run_python(
            "import json, sys, time\n"
            "from kennedyrx import cli\n"
            "t = time.perf_counter()\n"
            f"rc = cli.main({args!r})\n"
            "print(json.dumps([rc, time.perf_counter() - t]))\n",
        )
        assert "Traceback" not in proc.stderr
        assert "mean photon number" in proc.stderr
        rc, seconds = json.loads(proc.stdout.splitlines()[-1])
        assert rc == 2 and proc.returncode == 0
        assert seconds < 2.0
        assert not (tmp_path / "x.txt").exists()

    def test_brightest_accepted_regime_simulates(self, tmp_path):
        out = tmp_path / "x.txt"
        args = ["simulate", "--a", "20", "--b", "20", "--phi", "0.3", "--M", "10",
                "--seed", "1", "--out", str(out)]
        assert run_cli(args) == 0
        assert load_counts(str(out)).sample_size == 10


def test_package_runs_with_scipy_blocked(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable the tail bound at
    # every gamma, the goodness-of-fit p-value, ln n! beyond its table (3000 and
    # 10**12) and the CLI all run; numpy.random loads with the CLI
    counts = tmp_path / "counts.txt"
    counts.write_text("1\n0\n2\n3000\n")
    args = ["estimate", "--counts", str(counts), "--a", repr(SQRT2), "--b", repr(SQRT2),
            "--grid", "201", "--out", str(tmp_path / "post.csv")]
    proc = run_python(
        "import json, math, sys\nsys.modules['scipy'] = None\n"
        "import numpy as np\nfrom kennedyrx import cli, estimation, montecarlo, photonstats\n"
        "random = 'numpy.random' in sys.modules\n"
        "a = photonstats.DetectorPlaneAmplitudes(math.sqrt(2.0), math.sqrt(2.0))\n"
        "tails = [photonstats.photon_pmf(a, 0.3, g).tail_bound for g in (0.0, 0.5)]\n"
        "record = montecarlo.sample_counts(montecarlo.SimConfig(a, 0.3, 1000, 1))\n"
        "p = montecarlo.goodness_of_fit(record, photonstats.photon_pmf(a, 0.3)).p_value\n"
        "ll = estimation.log_likelihood_pnr(estimation.CountRecord([3000, 10**12]), a, 0.0,\n"
        "                                   estimation.PhaseGrid())\n"
        f"rc = cli.main({args!r})\n"
        "print(json.dumps([random, tails, p, bool(np.isfinite(ll).all()), rc]))"
    )
    assert proc.returncode == 0, proc.stderr
    random, tails, p, finite, rc = json.loads(proc.stdout.splitlines()[-1])
    assert random and all(0.0 <= t <= 1e-12 for t in tails)
    assert 0.0 <= p <= 1.0 and finite and rc == 0


def test_no_module_of_the_package_imports_scipy():
    paths = list(Path(SRC, "kennedyrx").glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [alias.name for alias in getattr(node, "names", [])]
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            assert not [n for n in names if n.split(".")[0] == "scipy"], path.name


def test_sweep_imports_no_module_of_its_own(tmp_path):
    # a cold sweep pays no import: numpy.random (with hashlib and secrets) is
    # loaded with the CLI, and ln n! comes from the table, not scipy
    args = ["sweep", "--a", "1.12", "--b", "0.79", "--phi", "0.25", "--seed", "42",
            "--method", "all", "--m-list", "30,100", "--replications", "3",
            "--grid", "201", "--out", str(tmp_path / "sweep")]
    proc = run_python(
        "import json, sys\nimport kennedyrx.cli as cli\n"
        "before = set(sys.modules)\n"
        f"rc = cli.main({args!r})\n"
        "print(json.dumps([rc, sorted(set(sys.modules) - before)]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    assert not {"numpy.random", "hashlib", "secrets"} & set(loaded)
    assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]
