"""The README's Python examples run as written, in order, in one namespace,
its list of config keys is the one :class:`kennedyrx.cli.RunConfig` declares,
and its table of each subcommand's keys is the one ``cli._COMMANDS`` declares."""

import dataclasses
import re
from pathlib import Path

from kennedyrx import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_config_keys_line_lists_the_declared_keys():
    listed = re.search(r"^Config keys: `([^`]*)`", README.read_text(encoding="utf-8"), re.M)
    declared = [f.name for f in dataclasses.fields(cli.RunConfig) if f.metadata]
    assert listed and listed.group(1).split() == declared


def test_subcommand_keys_table_lists_the_declared_keys():
    text = README.read_text(encoding="utf-8")
    amplitude = re.search(r"takes the amplitude keys `([^`]*)`", text)
    rows = dict(re.findall(r"^\| `(\w+)` \| `([^`]*)` \|$", text, re.M))
    assert amplitude and list(rows) == list(cli._COMMANDS)
    for command, keys in rows.items():
        assert (*amplitude.group(1).split(), *keys.split()) == cli._keys(command)
