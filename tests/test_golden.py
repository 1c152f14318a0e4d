"""Golden bytes: `classify`, `normalform`, `verify` and `search-pencil`
with `--json` must reproduce the exit codes, stdout and stderr recorded in
data/cli_golden.json.

The recorded inputs reach every branch of the verdict on the exact and the
float route (see data/record_cli_golden.py, which wrote the file).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from eikq.cli import main
from eikq.matrices import RationalMatrix
from eikq.polyring import rational

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
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        record["exit"], record["stdout"], record["stderr"]
    )


def _tol(record) -> float:
    options = record["options"]
    return float(options[options.index("--tol") + 1]) if "--tol" in options else 1e-9


def _dim_h(payload, tol: float) -> int:
    """dim_h read off a normal-form record: a zero pencil (entries within
    tol) gives d = p + 1, a q = 1 involution (p + tr A)/2 + 1."""
    p, q = payload["p"], payload["q"]
    pencil = [[[rational(v) for v in row] for row in a] for a in payload["pencil"]]
    if all(abs(v) <= tol for a in pencil for row in a for v in row):
        d = p + 1
    else:
        assert q == 1, "a nonzero pencil with q >= 2 is isoparametric"
        d = (p + round(float(sum(pencil[0][i][i] for i in range(p))))) // 2 + 1
    return min(d, p + q + 1 - d)


CROSS_CHECKED = [
    r["name"] for r in RECORDS
    if r["verb"] == "classify" and r["stdout"]
    and json.loads(r["stdout"])["verdict"] != "not_eikonal"
]


@pytest.mark.parametrize("name", CROSS_CHECKED)
def test_normalform_reads_the_normal_form_classify_reads(name):
    """Wherever classify's verdict is not not_eikonal, normalform succeeds
    and agrees.  An exact primitive verdict is read off the same
    normal form: same p, q and arithmetic.  A float primitive one comes
    from the certificate, and the float normal form gives its dim_h.  An
    isoparametric one is decided on f: the normal form's (q - 1, nu) is
    (m1, m2), swapped when it is that of -f, with 2 nu = tr(A_1^2) rounded
    on the float route.  An inconclusive one is not decided by the normal
    form either: its extraction residual exceeds tol."""
    by_verb = {r["verb"]: r for r in RECORDS if r["name"] == name}
    report = json.loads(by_verb["classify"]["stdout"])
    normalform = by_verb["normalform"]
    assert normalform["exit"] == 0
    payload = json.loads(normalform["stdout"])
    if report["verdict"] == "isoparametric":
        a1 = RationalMatrix([[rational(v) for v in row] for row in payload["pencil"][0]])
        pair = (payload["q"] - 1, round(float((a1 @ a1).trace()) / 2))
        if payload.get("negated"):
            pair = pair[::-1]
        assert pair == (report["m1"], report["m2"])
        return
    tol = _tol(by_verb["classify"])
    if report["verdict"] == "inconclusive_float":
        assert payload["arithmetic"] == "float"
        assert payload["extraction_residual"] > tol
        return
    assert report["verdict"] == "primitive"
    if report["arithmetic"] == "float":
        assert (report["p"], report["q"]) == (None, None)
        assert payload["arithmetic"] == "float"
        assert _dim_h(payload, tol) == report["dim_h"]
        return
    assert [payload[k] for k in ("p", "q", "arithmetic")] == [
        report[k] for k in ("p", "q", "arithmetic")
    ]
