"""The layer timing script, tools/layers.py: its quick mode writes a record
that passes its own schema check, and the check finds what is missing."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_record_has_the_schema(tmp_path):
    out = tmp_path / "quick.json"
    subprocess.run([sys.executable, str(SCRIPT), "--quick", "--out", str(out)], check=True, timeout=60)
    assert subprocess.run([sys.executable, str(SCRIPT), "--check", str(out)], timeout=60).returncode == 0
    record = json.loads(out.read_text())
    layers = _layers()
    assert record["schema"] == layers.SCHEMA and record["quick"] is True
    assert {p["layer"] for p in record["points"]} == set(layers.LAYERS)
    assert all(p["best_s"] > 0 and p["calls"] >= 1 for p in record["points"])
    assert set(layers.ENVIRONMENT_KEYS) <= record["environment"].keys()
    # a pair of two runs compares every point
    joined = layers.pair(record, record)
    assert layers.check(joined) == []
    assert [c["ratio"] for c in joined["comparison"]] == [1.0] * len(record["points"])


def test_quick_pair_takes_turns_on_two_trees(tmp_path):
    out = tmp_path / "pair.json"
    src = SCRIPT.parent.parent / "src"
    subprocess.run([sys.executable, str(SCRIPT), "--quick", "--before", str(src), "--out", str(out)],
                   check=True, timeout=60)
    record = json.loads(out.read_text())
    layers = _layers()
    assert layers.check(record) == []
    before, after = record["before"]["points"], record["after"]["points"]
    assert [(p["layer"], p["input"], p["calls"]) for p in before] == [
        (p["layer"], p["input"], p["calls"]) for p in after
    ]
    assert len(record["comparison"]) == len(before)


def test_check_names_what_is_missing():
    layers = _layers()
    point = {"layer": "classify", "input": "x", "calls": 1, "best_s": 1e-3, "wall_s": 1e-3}
    record = {"schema": layers.SCHEMA, "environment": {"python": "3"}, "points": [point]}
    problems = layers.check(record)
    assert "environment lacks commit" in problems
    assert "no point times is_orthogonal" in problems
    assert "no point times classify" not in problems
    assert layers.check({"schema": "other"}) != []
    assert layers.check({**record, "points": [dict(point, best_s=0.0)]}) != []
    assert layers.check({"schema": layers.PAIR_SCHEMA, "before": record, "after": record}) != []
