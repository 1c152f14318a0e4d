"""Golden bytes: `classify`, `normalform`, `verify` and `search-pencil`
with `--json` must reproduce the stdout and exit codes recorded in
data/cli_golden.json.

The recorded inputs reach every branch of the verdict on the exact and the
float route (see data/record_cli_golden.py, which wrote the file).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from eikq.cli import main

RECORDS = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize(
    "record", RECORDS, ids=[f"{r['verb']}-{r['name']}" for r in RECORDS]
)
def test_cli_golden_bytes(record, tmp_path, capsys):
    argv = [record["verb"]]
    if record["poly"] is not None:
        poly = tmp_path / "f.txt"
        poly.write_text(record["poly"])
        argv.append(str(poly))
    argv += ["--json", *record["options"]]
    if record["rotation"] is not None:
        rotation = tmp_path / "rot.txt"
        rotation.write_text(record["rotation"])
        argv += ["--rotation", str(rotation)]
    code = main(argv)
    assert (code, capsys.readouterr().out) == (record["exit"], record["stdout"])
