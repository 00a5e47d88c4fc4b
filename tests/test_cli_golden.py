"""The CLI byte contract: exit code, stdout, stderr and written files of fixed runs.

``tests/data/cli_golden.json`` lists the runs in order, each with its argv,
the input files it writes first and what it gave.  The runs share one
working directory and name their files by relative paths, so later runs read
what earlier ones wrote and every message is free of the directory's name.
Input files hold one byte per character (latin-1), so that a file can be
other than UTF-8.

Exit codes must match, and stdout, stderr and every written file must match
line for line, byte for byte, except that a real (a token between spaces,
commas and ``=``) may move within a relative 1e-10 (absolute 1e-12), the
variance tolerance of tests/test_estimation.py, as long as it is still
written with 17 significant digits.  The posterior moments are sums that
the BLAS kernel of the machine orders, and move in their last digits with
it.  A change that moves a golden value on purpose rewrites the file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path

from kennedyrx import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
REL, ABS = 1e-10, 1e-12
_SEPARATORS = re.compile(r"([ ,=])")


def _observe(run: dict, directory: Path) -> dict:
    """Run one case in ``directory``: its exit code, streams and new or changed files."""
    for name, text in run["inputs"].items():
        (directory / name).write_bytes(text.encode("latin-1"))
    before = {p.name: p.read_bytes() for p in directory.iterdir()}
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps its help to the terminal width
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(run["argv"])
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    files = {
        p.name: p.read_text(encoding="utf-8").split("\n")
        for p in sorted(directory.iterdir())
        if before.get(p.name) != p.read_bytes()
    }
    return {"exit": code, "stdout": out.getvalue().split("\n"),
            "stderr": err.getvalue().split("\n"), "files": files}


def _real_matches(got: str, want: str) -> bool:
    """``got`` is a real in its 17-significant-digit form, within REL of ``want``."""
    try:
        value = float(got)
        return f"{value:.17g}" == got and math.isclose(value, float(want), rel_tol=REL, abs_tol=ABS)
    except ValueError:
        return False


def _line_matches(got: str, want: str) -> bool:
    g, w = _SEPARATORS.split(got), _SEPARATORS.split(want)
    return len(g) == len(w) and all(a == b or _real_matches(a, b) for a, b in zip(g, w))


def _text_mismatch(got: list[str], want: list[str]) -> str | None:
    """The first line at which ``got`` does not match ``want``."""
    if len(got) != len(want):
        return f"{len(got)} lines, want {len(want)}"
    for lineno, (g, w) in enumerate(zip(got, want), 1):
        if not _line_matches(g, w):
            return f"line {lineno}: {g!r}, want {w!r}"
    return None


def _mismatches(run: dict, got: dict) -> list[str]:
    where = f"{run['name']} ({' '.join(run['argv'])})"
    found = [] if got["exit"] == run["exit"] else [f"{where}: exit {got['exit']}, want {run['exit']}"]
    if got["files"].keys() != run["files"].keys():
        found.append(f"{where}: wrote {sorted(got['files'])}, want {sorted(run['files'])}")
    texts = [("stdout", got["stdout"], run["stdout"]), ("stderr", got["stderr"], run["stderr"])]
    texts += [(name, got["files"][name], run["files"][name])
              for name in sorted(got["files"].keys() & run["files"].keys())]
    for name, g, w in texts:
        problem = _text_mismatch(g, w)
        if problem:
            found.append(f"{where}: {name}: {problem}")
    return found


def test_cli_runs_match_their_golden_outputs(tmp_path):
    runs = json.loads(GOLDEN.read_text(encoding="utf-8"))["runs"]
    found = [m for run in runs for m in _mismatches(run, _observe(run, tmp_path))]
    assert not found, "\n".join(found)


def test_reals_match_in_their_17_digit_form_within_the_tolerance():
    want = ["# a=1.1200000000000001", "phi,F_pnr", "0,0", "0.5,2.5"]
    nudged = [f"# a={1.12 * (1 + 4e-11):.17g}", "phi,F_pnr", "0,1e-13", "0.5,2.5000000000000004"]
    assert _text_mismatch(nudged, want) is None
    for moved in (["# a=1.12", "phi,F_pnr", "0,0", "0.5,2.5"],  # 16 digits
                  ["# a=1.1200000000000001", "phi,F_pnr", "0,0", "0.5,2.5000001"],
                  ["# b=1.1200000000000001", "phi,F_pnr", "0,0", "0.5,2.5"],
                  ["# a=1.1200000000000001", "phi,F_onoff", "0,0", "0.5,2.5"],
                  ["# a=1.1200000000000001", "phi,F_pnr", "0,0", "0.5,2.5,0"],
                  want[:-1]):
        assert _text_mismatch(moved, want)


def main() -> None:
    """Rewrite every run's golden outputs from this interpreter's ``kennedyrx``."""
    import tempfile

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as directory:
        for run in golden["runs"]:
            run.update(_observe(run, Path(directory)))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden['runs'])} runs to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
