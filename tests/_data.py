"""Shared exact fixtures for the test suite.

Frozen known-good objects: the q = 1 involution normal form, the smallest
isoparametric normal form with (p, q, nu) = (3, 2, 1), the closed form that
the involution data must assemble to, the Clifford quartic FKM(1, 4), and a
corpus of eikonal quartics in normal-form position covering every classifier
branch.
"""

from __future__ import annotations

from eikq.constructors import (
    NormalFormData,
    assemble_from_normal_form,
    make_canonical_quartic,
    make_primitive,
)
from eikq.matrices import RationalMatrix
from eikq.polyring import Polynomial, radial_power


def involution_data() -> NormalFormData:
    """p = 2, q = 1, A_1 = diag(1, -1), theta_3 = 0."""
    return NormalFormData(
        2, 1, (RationalMatrix.diagonal([1, -1]),), Polynomial.zero(3)
    )


def zero_pencil_data() -> NormalFormData:
    """p = 2, q = 1, A_1 = 0, theta_3 = 0."""
    return NormalFormData(2, 1, (RationalMatrix.zeros(2, 2),), Polynomial.zero(3))


def isoparametric_data() -> NormalFormData:
    """The smallest isoparametric normal form: (p, q, nu) = (3, 2, 1).

    Pencil diag(1, -1, 0) and E_01 + E_10; theta_3 is
    16 xi1 xi2 xi3 eta1 - 8 (xi1^2 - xi2^2) xi3 eta2.  The assembled
    quartic in R^6 is harmonic and exactly eikonal.
    """
    a1 = RationalMatrix.diagonal([1, -1, 0])
    a2 = RationalMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    theta3 = Polynomial(
        5, {(1, 1, 1, 1, 0): 16, (2, 0, 1, 0, 1): -8, (0, 2, 1, 0, 1): 8}
    )
    return NormalFormData(3, 2, (a1, a2), theta3)


def closed_form_involution_quartic() -> Polynomial:
    """(x4^2 + u^2 + v^2 + e^2)^2 - 2 (u^2 - v^2 - 2 x4 e)^2, vars (u, v, e, x4)."""
    u = Polynomial.variable(4, 0)
    v = Polynomial.variable(4, 1)
    e = Polynomial.variable(4, 2)
    x4 = Polynomial.variable(4, 3)
    return (x4 ** 2 + u ** 2 + v ** 2 + e ** 2) ** 2 - 2 * (
        u ** 2 - v ** 2 - 2 * x4 * e
    ) ** 2


def fkm_1_4() -> Polynomial:
    """The Clifford quartic FKM(1, 4): |x|^4 - 2 sum_i <P_i x, x>^2 on R^8.

    P0 = diag(I4, -I4) and P1 = [[0, I4], [I4, 0]] (Ferus, Karcher and
    Muenzner, Math. Z. 177, 1981).  F is exactly eikonal, isoparametric with
    (m1, m2) = (1, 2), and laplacian(F) = 8 |x|^2.  F(e_8) = -1, so at the
    identity the normal form is read off -F, with (p, q, nu) = (4, 3, 1).
    """
    x = [Polynomial.variable(8, i) for i in range(8)]
    form0 = sum((x[i] ** 2 - x[i + 4] ** 2 for i in range(4)), Polynomial.zero(8))
    form1 = sum((2 * x[i] * x[i + 4] for i in range(4)), Polynomial.zero(8))
    return radial_power(8, 2) - 2 * (form0 ** 2 + form1 ** 2)


def corpus() -> list[Polynomial]:
    """Exact eikonal quartics in normal-form position, one per branch."""
    return [
        make_primitive(4, 2, 1),
        make_primitive(4, 3, 0),
        make_primitive(4, 4, 2),
        make_primitive(4, 5, 4),
        make_canonical_quartic(4, 1),
        make_canonical_quartic(5, 2),
        make_canonical_quartic(6, 2),
        assemble_from_normal_form(involution_data()),
        assemble_from_normal_form(zero_pencil_data()),
        assemble_from_normal_form(isoparametric_data()),
    ]


# verdict and folded dim H / multiplicities expected for each corpus entry
CORPUS_EXPECTED = (
    ("primitive", {"dim_h": 1}),
    ("primitive", {"dim_h": 0}),
    ("primitive", {"dim_h": 2}),
    ("primitive", {"dim_h": 1}),
    ("primitive", {"dim_h": 1}),
    ("primitive", {"dim_h": 2}),
    ("primitive", {"dim_h": 2}),
    ("primitive", {"dim_h": 2}),
    ("primitive", {"dim_h": 1}),
    ("isoparametric", {"m1": 1, "m2": 1, "nu": 1, "mu": 1}),
)


def mixed_normal_form_stream(count: int, seed: int = 2024):
    """Deterministic stream of NormalFormData, mixing valid and junk shapes.

    Every 20th item is a planted known-eikonal datum; the rest draw random
    symmetric pencils with entries in {-1, -1/2, 0, 1/2, 1} and random
    theta_3 blocks, which are almost never eikonal.
    """
    import random

    from eikq.pencils import theta3_basis
    from eikq.polyring import rational

    rng = random.Random(seed)
    plants = [involution_data(), zero_pencil_data(), isoparametric_data()]
    out = []
    for i in range(count):
        if i % 20 == 0:
            out.append(plants[(i // 20) % len(plants)])
            continue
        p = rng.randint(1, 3)
        q = rng.randint(1, 2)
        pencil = []
        for _ in range(q):
            entries = [[rational(0)] * p for _ in range(p)]
            for r in range(p):
                for c in range(r, p):
                    v = rational(rng.choice((-2, -1, 0, 0, 1, 2)), 2)
                    entries[r][c] = v
                    entries[c][r] = v
            pencil.append(RationalMatrix(entries))
        pencil = tuple(pencil)
        dim = p + q
        if rng.random() < 0.5:
            theta3 = Polynomial.zero(dim)
            for b in theta3_basis(pencil, p):
                theta3 = theta3 + rational(rng.randint(-2, 2)) * 8 * b
        else:
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = [0] * dim
                for _ in range(3):
                    mono[rng.randrange(p)] += 1
                mono[p + rng.randrange(q)] += 1
                terms[tuple(mono)] = terms.get(tuple(mono), 0) + rng.randint(-4, 4)
            theta3 = Polynomial(dim, terms)
        out.append(NormalFormData(p, q, pencil, theta3))
    return out
