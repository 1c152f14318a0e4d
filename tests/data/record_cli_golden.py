"""Record the golden CLI outputs checked by tests/test_golden.py.

For every input below, runs `eikq classify --json` and `eikq normalform
--json` in-process and stores the exit code, stdout and stderr next to the
input text in cli_golden.json.  The inputs reach each branch of the verdict
on the exact route and on the float route: q = 0, p = 0, q = 1 with a zero
pencil and with an involution, a zero pencil with q >= 2, isoparametric
(the (3, 2, 1) pencil and the Clifford quartic FKM(1, 4), which classify
decides on f and normalform reads off -f), not eikonal, the inconclusive band, an extraction residual
above --tol, --exact on an input in normal position, and the ValueError of
--exact.  After them come `verify --json` records (eikonal primitives of
degree 4 and 6, a perturbed non-eikonal quartic) and `search-pencil --json`
records, feasible and infeasible, which take no input file ("poly" is null).
Negative outcomes are JSON reports too: `normalform` on a non-eikonal input
writes its verdict and evidence.

Run from the repository root with the eikq under test on the path:

    PYTHONPATH=src python tests/data/record_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import _data as data  # noqa: E402
from eikq.cli import main  # noqa: E402
from eikq.constructors import (  # noqa: E402
    assemble_from_normal_form,
    make_canonical_quartic,
    make_primitive,
)
from eikq.matrices import random_rational_orthogonal  # noqa: E402
from eikq.polyring import Polynomial, poly_to_text, rational, substitute_linear  # noqa: E402

OUTPUT = HERE / "cli_golden.json"


def _nudge(f: Polynomial, exponent: int) -> Polynomial:
    """f plus 10^-exponent x_0^4: inexact, but eikonal up to that size."""
    mono = (4,) + (0,) * (f.dimension - 1)
    return f + rational(1, 10 ** exponent) * Polynomial.monomial(f.dimension, mono)


def _rotation_text(matrix) -> str:
    n = matrix.n_rows
    rows = [" ".join(str(matrix[i, j]) for j in range(n)) for i in range(n)]
    return f"{n}\n" + "\n".join(rows) + "\n"


def inputs() -> list[tuple[str, Polynomial, str | None, list[str]]]:
    """(name, polynomial, rotation file text or None, extra options)."""
    involution = assemble_from_normal_form(data.involution_data())
    zero_pencil = assemble_from_normal_form(data.zero_pencil_data())
    iso = assemble_from_normal_form(data.isoparametric_data())
    r4 = random_rational_orthogonal(4, 1)
    rotated_involution = substitute_linear(involution, r4)
    return [
        # exact route, in normal position
        ("radial_q0", make_primitive(4, 3, 0), None, []),
        ("primitive_p0", make_primitive(4, 2, 1), None, []),
        ("zero_pencil_q1", zero_pencil, None, []),
        ("involution_q1", involution, None, []),
        ("zero_pencil_q2", make_canonical_quartic(6, 2), None, []),
        ("isoparametric", iso, None, []),
        ("negated", -make_canonical_quartic(4, 1), None, []),
        ("fkm_1_4", data.fkm_1_4(), None, []),
        ("exact_in_position", make_canonical_quartic(4, 1), None, ["--exact"]),
        # exact route through --rotation
        ("involution_rotation", rotated_involution, _rotation_text(r4.transpose()), []),
        ("wrong_rotation", rotated_involution, _rotation_text(r4), []),
        # float route
        ("radial_q0_float", _nudge(make_primitive(4, 3, 0), 12), None, []),
        ("primitive_p0_float", substitute_linear(make_primitive(4, 2, 1),
                                                 random_rational_orthogonal(2, 1)), None, []),
        ("zero_pencil_q1_float", substitute_linear(zero_pencil, r4), None, []),
        ("involution_q1_float", rotated_involution, None, []),
        ("zero_pencil_q2_float", substitute_linear(make_canonical_quartic(5, 2),
                                                   random_rational_orthogonal(5, 1)), None, []),
        # Cayley-rotated: classify decides it exactly, by Muenzner's equation
        ("isoparametric_float", substitute_linear(iso, random_rational_orthogonal(6, 1)),
         None, []),
        ("near_exact_float", _nudge(make_canonical_quartic(3, 1), 12), None, []),
        ("residual_above_tol", rotated_involution, None, ["--tol", "1e-20"]),
        # negative and inconclusive verdicts, refusals
        ("not_eikonal", Polynomial.monomial(2, (4, 0)), None, []),
        ("not_eikonal_structure", Polynomial(2, {(4, 0): 1, (0, 4): 1}), None, []),
        ("inconclusive_band", _nudge(make_canonical_quartic(3, 1), 8), None, []),
        ("exact_refused", rotated_involution, None, ["--exact"]),
    ]


def verify_inputs() -> list[tuple[str, Polynomial, list[str]]]:
    """(name, polynomial, extra options) for `verify --json`."""
    return [
        ("primitive_g4", make_primitive(4, 5, 2), []),
        ("primitive_g6", make_primitive(6, 3, 1), ["--g", "6"]),
        ("perturbed", _nudge(make_canonical_quartic(4, 1), 3), []),
    ]


# (name, search-pencil options)
SEARCHES = [
    ("search_2_1_1", ["--p", "2", "--q", "1", "--nu", "1"]),
    ("search_3_2_1", ["--p", "3", "--q", "2", "--nu", "1", "--budget", "195"]),
    ("search_3_0_0", ["--p", "3", "--q", "0", "--nu", "0"]),
    ("search_4_1_2", ["--p", "4", "--q", "1", "--nu", "2", "--budget", "20"]),
    # full searches: every conjugation, so screening across rotations is pinned
    ("search_3_2_1_full", ["--p", "3", "--q", "2", "--nu", "1"]),
    ("search_4_1_2_full", ["--p", "4", "--q", "1", "--nu", "2"]),
    # infeasible parameters: the empty-search keys plus "detail", exit 1
    ("search_2_1_2", ["--p", "2", "--q", "1", "--nu", "2"]),
]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record() -> list[dict]:
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, f, rotation, options in inputs():
            poly = poly_to_text(f)
            argv_tail = [str(Path(tmp) / "f.txt"), "--json", *options]
            (Path(tmp) / "f.txt").write_text(poly)
            if rotation is not None:
                (Path(tmp) / "rot.txt").write_text(rotation)
                argv_tail += ["--rotation", str(Path(tmp) / "rot.txt")]
            for verb in ("classify", "normalform"):
                result = run([verb, *argv_tail])
                records.append({
                    "name": name,
                    "verb": verb,
                    "poly": poly,
                    "rotation": rotation,
                    "options": options,
                    **result,
                })
        for name, f, options in verify_inputs():
            poly = poly_to_text(f)
            (Path(tmp) / "f.txt").write_text(poly)
            result = run(["verify", str(Path(tmp) / "f.txt"), "--json", *options])
            records.append({
                "name": name,
                "verb": "verify",
                "poly": poly,
                "rotation": None,
                "options": options,
                **result,
            })
    for name, options in SEARCHES:
        result = run(["search-pencil", "--json", *options])
        records.append({
            "name": name,
            "verb": "search-pencil",
            "poly": None,
            "rotation": None,
            "options": options,
            **result,
        })
    return records


if __name__ == "__main__":
    OUTPUT.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {OUTPUT}")
