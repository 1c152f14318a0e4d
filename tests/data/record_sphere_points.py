"""Record the sphere maximizers checked by tests/test_normalform.py.

For every input below, runs `sphere_maximize(f)` and stores `float.hex` of
each coordinate of the returned point next to the input text in
sphere_points.json, so that a rewrite of the step must give the same points
bit for bit.  The inputs are canonical, primitive, involution and
isoparametric quartics for n = 3..6 under float QR rotations (a fixed numpy
seed) and under Cayley rotations (`random_rational_orthogonal` with fixed
seeds), two of them negated, and x_0^4 in one variable.  The names
`canonical_4_1_cayley_seed3` and `involution_qr_seeds8` once recorded other
starts of a multi-start ascent; they now repeat the input, and the point, of
`canonical_4_1_cayley` and `involution_qr`.

The step uses only +, *, / and sqrt on floats read from the coefficients,
so the points do not depend on numpy or on the host.  Run from the
repository root with the eikq under test on the path:

    PYTHONPATH=src python tests/data/record_sphere_points.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import _data as data  # noqa: E402
from eikq.constructors import (  # noqa: E402
    assemble_from_normal_form,
    make_canonical_quartic,
    make_primitive,
)
from eikq.matrices import RationalMatrix, random_rational_orthogonal  # noqa: E402
from eikq.normalform import sphere_maximize  # noqa: E402
from eikq.polyring import Polynomial, poly_to_text, substitute_linear  # noqa: E402

OUTPUT = HERE / "sphere_points.json"


def inputs() -> list[tuple[str, Polynomial]]:
    """(name, polynomial)."""
    nprng = np.random.default_rng(7)

    def qr(f: Polynomial) -> Polynomial:
        n = f.dimension
        q, r = np.linalg.qr(nprng.standard_normal((n, n)))
        return substitute_linear(f, RationalMatrix.from_float(q * np.sign(np.diag(r))))

    def cayley(f: Polynomial, seed: int) -> Polynomial:
        return substitute_linear(f, random_rational_orthogonal(f.dimension, seed))

    involution = assemble_from_normal_form(data.involution_data())
    iso = assemble_from_normal_form(data.isoparametric_data())
    involution_qr = qr(involution)
    canonical_cayley = cayley(make_canonical_quartic(4, 1), 3)
    return [
        ("canonical_3_1_qr", qr(make_canonical_quartic(3, 1))),
        ("primitive_4_2_qr", qr(make_primitive(4, 4, 2))),
        ("involution_qr", involution_qr),
        ("canonical_5_2_qr", qr(make_canonical_quartic(5, 2))),
        ("isoparametric_qr", qr(iso)),
        ("primitive_3_1_cayley", cayley(make_primitive(4, 3, 1), 1)),
        ("canonical_4_1_cayley", canonical_cayley),
        ("involution_cayley", cayley(involution, 5)),
        ("primitive_5_3_cayley", cayley(make_primitive(4, 5, 3), 2)),
        ("canonical_6_2_cayley", cayley(make_canonical_quartic(6, 2), 4)),
        ("negated_involution_qr", -involution_qr),
        ("negated_canonical_4_1_cayley", -canonical_cayley),
        ("canonical_4_1_cayley_seed3", canonical_cayley),
        ("involution_qr_seeds8", involution_qr),
        ("one_variable", Polynomial.monomial(1, (4,))),
    ]


def record() -> list[dict]:
    records = []
    for name, f in inputs():
        records.append({
            "name": name,
            "poly": poly_to_text(f),
            "point": [float.hex(c) for c in sphere_maximize(f)],
        })
    return records


if __name__ == "__main__":
    OUTPUT.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {OUTPUT}")
