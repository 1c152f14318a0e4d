"""Seeded input generation for the four workloads.

Run as a script it writes one workload's inputs into a directory:

    python3 perfbench/generate.py --workload verify --seed 1 --out DIR

The directory gets the input files plus ``manifest.json``: the ordered list
of operations of one pass and, for each, the answer expected from how the
input was built (never from eikq's output).  ``{in}`` and ``{work}`` in an
argument stand for the input directory and the run's scratch directory.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402

import eikq  # noqa: E402
from eikq.constructors import (  # noqa: E402
    NormalFormData,
    assemble_from_normal_form,
    make_canonical_quartic,
    make_primitive,
    normal_form_data_to_text,
)
from eikq.matrices import RationalMatrix, random_rational_orthogonal  # noqa: E402
from eikq.pencils import theta3_basis  # noqa: E402
from eikq.polyring import Polynomial, rational, substitute_linear  # noqa: E402

WORKLOADS = ("verify", "classify-exact", "classify-float", "search")

HITS_FILE = HERE / "expected_hits.json"

# The budgets give every search about the cost of the complete (4, 1, 2)
# search, 0.6 normalized seconds, so the median and the tail latency fall
# inside one cluster of similar calls whatever the number of passes;
# (2, 1, 1) is the exception, a complete search in a few milliseconds.
SEARCHES = (
    (2, 1, 1, 10 ** 6), (4, 1, 2, 10 ** 6), (3, 2, 1, 180), (3, 2, 1, 195),
    (4, 3, 1, 80), (4, 3, 1, 86), (5, 4, 1, 31), (5, 4, 1, 34),
)


# The three planted normal forms match the test fixtures in tests/_data.py;
# they are restated here so that the benchmark's inputs stay fixed when the
# tests change.
def involution_data() -> NormalFormData:
    return NormalFormData(2, 1, (RationalMatrix.diagonal([1, -1]),), Polynomial.zero(3))


def zero_pencil_data() -> NormalFormData:
    return NormalFormData(2, 1, (RationalMatrix.zeros(2, 2),), Polynomial.zero(3))


def isoparametric_data() -> NormalFormData:
    """(p, q, nu) = (3, 2, 1): pencil diag(1, -1, 0), E_01 + E_10."""
    a1 = RationalMatrix.diagonal([1, -1, 0])
    a2 = RationalMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    theta3 = Polynomial(5, {(1, 1, 1, 1, 0): 16, (2, 0, 1, 0, 1): -8, (0, 2, 1, 0, 1): 8})
    return NormalFormData(3, 2, (a1, a2), theta3)


def quartic(kind: str, n: int, d: int):
    """(polynomial, expected invariants) of a named quartic."""
    if kind == "primitive":
        return make_primitive(4, n, d), {"verdict": "primitive", "dim_h": min(d, n - d)}
    if kind == "canonical":
        return make_canonical_quartic(n, d), {"verdict": "primitive", "dim_h": d}
    if kind == "involution":
        return assemble_from_normal_form(involution_data()), {"verdict": "primitive", "dim_h": 2}
    if kind == "zero-pencil":
        return assemble_from_normal_form(zero_pencil_data()), {"verdict": "primitive", "dim_h": 1}
    if kind == "isoparametric":
        return assemble_from_normal_form(isoparametric_data()), {
            "verdict": "isoparametric", "m1": 1, "m2": 1, "nu": 1, "mu": 1,
        }
    raise ValueError(kind)


def _terms(f: Polynomial) -> dict:
    return {m: Fraction(int(c.numerator), int(c.denominator)) for m, c in f.terms.items()}


def _perturb(terms: dict, n: int, g: int, rng: random.Random, floor=Fraction(0)) -> dict:
    """Add a seeded monomial of degree g until a point certificate shows the
    result is not eikonal (with a residual coefficient above `floor`)."""
    while True:
        out = dict(terms)
        mono = [0] * n
        for _ in range(g):
            mono[rng.randrange(n)] += 1
        mono = tuple(mono)
        delta = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 4)))
        value = out.get(mono, 0) + delta
        if value:
            out[mono] = value
        else:
            out.pop(mono)
        if oracle.non_eikonal_certificate(out, n, g, rng, floor) is not None:
            return out


def _cli(argv, **expect) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv], "expect": expect}


def _classify_op(name: str, out: Path, f, rotation, expect: dict, block: bool = False) -> dict:
    (out / f"{name}.txt").write_text(eikq.poly_to_text(f))
    argv = ["classify", f"{{in}}/{name}.txt", "--json"]
    if rotation is not None:
        (out / f"{name}.rot").write_text(oracle.rotation_text(rotation.entries))
        argv[2:2] = ["--rotation", f"{{in}}/{name}.rot"]
    return _cli(argv, exit=0, block_rotation=block, **expect)


def gen_verify(seed: int, out: Path) -> list:
    rng = random.Random(seed)
    units = []
    for g in (2, 3, 4, 6):
        for n in range(2, 11):
            dims = [1] if g % 2 else list(range(n + 1))
            for d in dims:
                path = f"{{work}}/primitive-g{g}-n{n}-d{d}.txt"
                units.append([
                    _cli(["construct", "--type", "primitive", "--g", g, "--n", n, "--dimh", d,
                          "-o", path], exit=0, file=path, oracle=[g, n, d]),
                    _cli(["verify", path, "--g", g, "--json"], exit=0, eikonal=True, g=g, n=n),
                ])
            d = rng.choice(dims)
            bad = _perturb(oracle.primitive(g, n, d), n, g, rng)
            name = f"perturbed-g{g}-n{n}.txt"
            (out / name).write_text(oracle.poly_text(bad, n))
            units.append([_cli(["verify", f"{{in}}/{name}", "--g", g, "--json"],
                               exit=1, eikonal=False, g=g, n=n)])
    plants = [involution_data(), zero_pencil_data(), isoparametric_data()]
    steps = (-2, -1, 0, 0, 1, 2)
    for i in range(60):
        if i % 20 == 0:
            data, planted = plants[(i // 20) % len(plants)], True
        else:
            planted = False
            p, q = rng.randint(1, 3), rng.randint(1, 2)
            pencil = []
            for _ in range(q):
                entries = [[rational(0)] * p for _ in range(p)]
                for r in range(p):
                    for c in range(r, p):
                        entries[r][c] = entries[c][r] = rational(rng.choice(steps), 2)
                pencil.append(RationalMatrix(entries))
            pencil = tuple(pencil)
            theta3 = Polynomial.zero(p + q)
            if rng.random() < 0.5:
                for b in theta3_basis(pencil, p):
                    theta3 = theta3 + rational(rng.randint(-2, 2)) * 8 * b
            else:
                terms: dict = {}
                for _ in range(rng.randint(1, 3)):
                    mono = [0] * (p + q)
                    for _ in range(3):
                        mono[rng.randrange(p)] += 1
                    mono[p + rng.randrange(q)] += 1
                    terms[tuple(mono)] = terms.get(tuple(mono), 0) + rng.randint(-4, 4)
                theta3 = Polynomial(p + q, terms)
            data = NormalFormData(p, q, pencil, theta3)
        name = f"candidate-{i:02d}.nf"
        (out / name).write_text(normal_form_data_to_text(data))
        units.append([{"kind": "identity", "file": f"{{in}}/{name}",
                       "expect": {"planted": planted}}])
    rng.shuffle(units)
    return [op for unit in units for op in unit]


def _cayley(n: int, rng: random.Random) -> RationalMatrix:
    return random_rational_orthogonal(n, rng.randrange(10 ** 6))


def gen_classify_exact(seed: int, out: Path) -> list:
    """Twenty-eight regular inputs and four block-rotation inputs per pass.

    The quartics are fixed and the seed draws their rotations, two for each
    quartic, so that one unlucky rotation moves the figures less.  Fourteen
    of the thirty-two inputs have n = 4, so the median latency sits inside
    one cluster of similar inputs rather than on the gap between two; the
    eight n = 6 inputs make the slowest cluster, which holds the tail.
    """
    rng = random.Random(seed)
    bases = [("primitive", 2, 1), ("primitive", 3, 1), ("canonical", 3, 1),
             ("primitive", 4, 1), ("primitive", 4, 2), ("primitive", 4, 3),
             ("canonical", 4, 1), ("canonical", 4, 2), ("involution", 4, 0),
             ("zero-pencil", 4, 0), ("primitive", 5, 2), ("canonical", 5, 1),
             ("primitive", 6, 2), ("isoparametric", 6, 0)]
    ops = []
    for i, (kind, n, d) in enumerate(bases):
        f, expect = quartic(kind, n, d)
        for copy in range(2):
            u = _cayley(n, rng)
            ops.append(_classify_op(f"in{i:02d}{'ab'[copy]}-{kind}-n{n}", out,
                                    substitute_linear(f, u), u.transpose(),
                                    dict(expect, arithmetic="exact")))
    # A valid rotation U^T diag(W, 1): it keeps e_n on a maximizer, but for
    # these n = 6 quartics the x_n^2 eigenspaces seldom have a rational
    # orthonormal basis that Gram-Schmidt reaches, a known defect that
    # exits 2 at the seed commit.
    for i, (kind, n, d) in enumerate([("canonical", 6, 2), ("primitive", 6, 3)] * 2):
        f, expect = quartic(kind, n, d)
        u = _cayley(n, rng)
        w = _cayley(n - 1, rng)
        block = RationalMatrix([list(w.row(r)) + [0] for r in range(n - 1)] + [[0] * (n - 1) + [1]])
        ops.append(_classify_op(f"block{i}-{kind}-n{n}", out, substitute_linear(f, u),
                                u.transpose() @ block, dict(expect, arithmetic="exact"), block=True))
    rng.shuffle(ops)
    return ops


def gen_classify_float(seed: int, out: Path) -> list:
    """Float-route inputs (a, b), rejected perturbations (c), normal position (d).

    Per pass: six cheap inputs (c, d), twelve n = 4 float-route inputs
    that hold the median, and four n = 5 ones plus the isoparametric n = 6
    one that hold the tail.  The n = 4 quartics get two seeded rotations
    each, so that one rotation moves the median less.
    """
    import numpy as np

    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    ops = []

    def float_rotation(n):
        q, r = np.linalg.qr(nprng.standard_normal((n, n)))
        return RationalMatrix.from_float(q * np.sign(np.diag(r)))

    float_bases = [("canonical", 4, 1), ("primitive", 4, 2), ("involution", 4, 0),
                   ("primitive", 5, 2), ("canonical", 5, 2), ("isoparametric", 6, 0)]
    for i, (kind, n, d) in enumerate(float_bases):
        f, expect = quartic(kind, n, d)
        for copy in range(2 if n == 4 else 1):
            g = substitute_linear(f, float_rotation(n))
            ops.append(_classify_op(f"a{i}{'ab'[copy]}-{kind}-n{n}", out, g, None,
                                    dict(expect, arithmetic="float")))
    cayley_bases = [("canonical", 4, 2), ("primitive", 4, 1), ("zero-pencil", 4, 0),
                    ("canonical", 5, 1), ("primitive", 5, 3)]
    rotated = []
    for i, (kind, n, d) in enumerate(cayley_bases):
        f, expect = quartic(kind, n, d)
        for copy in range(2 if n == 4 else 1):
            g = substitute_linear(f, _cayley(n, rng))
            # a rotation sending e_n to a point with f = 1 or -1 leaves the input
            # in normal position, where the identity route succeeds; draw again
            while _terms(g).get((0,) * (n - 1) + (4,), 0) in (1, -1):
                g = substitute_linear(f, _cayley(n, rng))
            if copy == 0:
                rotated.append((g, n))
            ops.append(_classify_op(f"b{i}{'ab'[copy]}-{kind}-n{n}", out, g, None,
                                    dict(expect, arithmetic="float")))
    for i, (g, n) in enumerate(rotated[:3]):
        # a perturbation far above classify's 1e-6 rejection threshold
        bad = _perturb(_terms(g), n, 4, rng, floor=Fraction(1, 10 ** 5))
        name = f"c{i}-perturbed-n{n}"
        (out / f"{name}.txt").write_text(oracle.poly_text(bad, n))
        ops.append(_cli(["classify", f"{{in}}/{name}.txt", "--json"], exit=1,
                        verdict="not_eikonal", block_rotation=False))
    for i, (kind, n, d) in enumerate([("primitive", 5, 2), ("canonical", 4, 1),
                                      ("involution", 4, 0)]):
        f, expect = quartic(kind, n, d)
        ops.append(_classify_op(f"d{i}-{kind}-n{n}", out, f, None, dict(expect, arithmetic="exact")))
    rng.shuffle(ops)
    return ops


def gen_search(seed: int, out: Path) -> list:
    """The fixed list of searches, in a seeded order."""
    hits = {tuple(row[:4]): row[4] for row in json.loads(HITS_FILE.read_text())["hits"]}
    params = list(SEARCHES)
    random.Random(seed).shuffle(params)
    ops = []
    for p, q, nu, budget in params:
        count = hits[(p, q, nu, budget)]
        ops.append(_cli(["search-pencil", "--p", p, "--q", q, "--nu", nu, "--budget", budget,
                         "--json"], exit=0 if count else 1, count=count, p=p, q=q, nu=nu,
                        budget=budget))
    return ops


GENERATORS = {
    "verify": gen_verify,
    "classify-exact": gen_classify_exact,
    "classify-float": gen_classify_float,
    "search": gen_search,
}


def generate(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    ops = GENERATORS[workload](seed, out)
    for index, op in enumerate(ops):
        op["id"] = index
    manifest = {"workload": workload, "seed": seed, "ops": ops}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
