"""Oracle tests for the normal-form polynomial writers and readers.

The pencil builders (`quadratic_form_poly`, `psi_from_pencil`,
`theta2_from_pencil`, `theta4_from_pencil`, `eta_identity_residual`), the structure identities
er1/er2, the extraction readers (`_extract_psi_pencil`,
`_theta_components`) and `block_radial` are compared with reference loops
kept here.  The references write each monomial by hand and multiply it in
with `ref_mul`, a schoolbook double loop over the terms, so that neither
the (xi, eta) layout nor the library's packed product loop is its own
reference.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from eikq.analysis import check_structure_identities
from eikq.constructors import NormalFormData
from eikq.matrices import RationalMatrix
from eikq.normalform import _extract_psi_pencil, _theta_components
from eikq.pencils import (
    block_radial,
    eta_identity_residual,
    psi_from_pencil,
    quadratic_form_poly,
    tau_polynomials,
    theta2_from_pencil,
    theta4_from_pencil,
)
from eikq.polyring import Polynomial, partial_derivative, radial_power, rational

ENTRIES = tuple(Fraction(v) for v in ("0", "0", "1", "-1", "2", "-1/2", "1/3"))


# -- reference loops ------------------------------------------------------------


def ref_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """a b by the schoolbook double loop over the terms, one Fraction per product."""
    terms: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            terms[mono] = terms.get(mono, 0) + ca * cb
    return Polynomial(a.dimension, terms)


def ref_quadratic_form(matrix: RationalMatrix, dim: int) -> Polynomial:
    p = matrix.n_rows
    terms = {}
    for j in range(p):
        for k in range(j, p):
            coeff = matrix[j, k] if j == k else matrix[j, k] + matrix[k, j]
            if coeff:
                mono = [0] * dim
                mono[j] += 1
                mono[k] += 1
                terms[tuple(mono)] = coeff
    return Polynomial(dim, terms)


def ref_eta_monomial(dim: int, p: int, indices, coefficient=1) -> Polynomial:
    mono = [0] * dim
    for i in indices:
        mono[p + i] += 1
    return Polynomial.monomial(dim, mono, coefficient)


def ref_block_radial(dim: int, indices, power: int) -> Polynomial:
    base = Polynomial.zero(dim)
    for i in indices:
        base = base + Polynomial.monomial(dim, [2 if j == i else 0 for j in range(dim)])
    out = Polynomial.constant(dim, 1)
    for _ in range(power):
        out = ref_mul(out, base)
    return out


def ref_psi(pencil, p: int) -> Polynomial:
    dim = p + len(pencil)
    out = Polynomial.zero(dim)
    for i, a in enumerate(pencil):
        out = out + ref_mul(ref_quadratic_form(a, dim), ref_eta_monomial(dim, p, [i]))
    return out


def ref_theta2(pencil, p: int) -> Polynomial:
    q = len(pencil)
    dim = p + q
    out = Polynomial.zero(dim)
    for i in range(q):
        for l in range(q):
            form = ref_quadratic_form(pencil[i] @ pencil[l], dim)
            out = out + ref_mul(form, ref_eta_monomial(dim, p, [i, l], 8))
    cross = ref_mul(ref_block_radial(dim, range(p), 1), ref_block_radial(dim, range(p, dim), 1))
    return out - 6 * cross


def ref_theta4(pencil, p: int) -> Polynomial:
    dim = p + len(pencil)
    out = ref_block_radial(dim, range(p), 2)
    for a in pencil:
        tau = ref_quadratic_form(a, dim)
        out = out - 2 * ref_mul(tau, tau)
    return out


def ref_eta_residual(pencil, p: int) -> Polynomial:
    q = len(pencil)
    dim = p + q
    out = Polynomial.zero(dim)
    for i in range(q):
        for j in range(q):
            for k in range(q):
                form = ref_quadratic_form(pencil[i] @ pencil[j] @ pencil[k], dim)
                out = out + ref_mul(form, ref_eta_monomial(dim, p, [i, j, k]))
    eta_sq = ref_block_radial(dim, range(p, dim), 1)
    for i in range(q):
        eta = ref_eta_monomial(dim, p, [i])
        out = out - ref_mul(ref_mul(eta_sq, eta), ref_quadratic_form(pencil[i], dim))
    return out


def ref_er1_er2(pencil, p: int, theta3: Polynomial) -> tuple[Polynomial, Polynomial]:
    """sum_i tau_i d theta3/d eta_i and sum_j (A_eta xi)_j d theta3/d xi_j."""
    q = len(pencil)
    dim = p + q
    er1 = Polynomial.zero(dim)
    for i, a in enumerate(pencil):
        er1 = er1 + ref_mul(ref_quadratic_form(a, dim), partial_derivative(theta3, p + i))
    er2 = Polynomial.zero(dim)
    for j in range(p):
        terms: dict = {}
        for i in range(q):
            for k in range(p):
                if pencil[i][j, k]:
                    mono = [0] * dim
                    mono[k] += 1
                    mono[p + i] += 1
                    terms[tuple(mono)] = terms.get(tuple(mono), 0) + pencil[i][j, k]
        er2 = er2 + ref_mul(Polynomial(dim, terms), partial_derivative(theta3, j))
    return er1, er2


def ref_extract_psi_pencil(psi: Polynomial, p: int, q: int):
    stray = {}
    entries = [[[Fraction(0)] * p for _ in range(p)] for _ in range(q)]
    for mono, coeff in psi.terms.items():
        if sum(mono[:p]) != 2 or sum(mono[p:]) != 1:
            stray[mono] = coeff
            continue
        i = next(k for k in range(q) if mono[p + k])
        support = [j for j in range(p) if mono[j]]
        if len(support) == 1:
            entries[i][support[0]][support[0]] = coeff
        else:
            j, k = support
            entries[i][j][k] = entries[i][k][j] = coeff / 2
    return tuple(RationalMatrix(rows) for rows in entries), Polynomial(psi.dimension, stray)


def ref_theta_components(theta: Polynomial, p: int) -> dict[int, Polynomial]:
    buckets: dict[int, dict] = {k: {} for k in range(5)}
    for mono, coeff in theta.terms.items():
        buckets[sum(mono[:p])][mono] = coeff
    return {k: Polynomial(theta.dimension, terms) for k, terms in buckets.items()}


# -- random data ------------------------------------------------------------------


def random_symmetric(rng: random.Random, p: int) -> RationalMatrix:
    entries = [[Fraction(0)] * p for _ in range(p)]
    for j in range(p):
        for k in range(j, p):
            entries[j][k] = entries[k][j] = rng.choice(ENTRIES)
    return RationalMatrix(entries)


def random_homogeneous(rng: random.Random, p: int, q: int, degrees: list[tuple[int, int]],
                       n_terms: int) -> Polynomial:
    """Random terms whose (xi-degree, eta-degree) is drawn from `degrees`."""
    terms = {}
    for _ in range(n_terms):
        d_xi, d_eta = rng.choice(degrees)
        mono = [0] * (p + q)
        for _ in range(d_xi):
            mono[rng.randrange(p)] += 1
        for _ in range(d_eta):
            mono[p + rng.randrange(q)] += 1
        terms[tuple(mono)] = rng.choice(ENTRIES[2:])
    return Polynomial(p + q, terms)


def random_cases(count: int, seed: int):
    """(pencil, p, q, theta3) with 1 <= p <= 4, 0 <= q <= 3 and theta3 != 0 when q > 0."""
    rng = random.Random(seed)
    for _ in range(count):
        p, q = rng.randint(1, 4), rng.randint(0, 3)
        pencil = tuple(random_symmetric(rng, p) for _ in range(q))
        theta3 = (random_homogeneous(rng, p, q, [(3, 1)], rng.randint(1, 6)) if q
                  else Polynomial.zero(p))
        yield pencil, p, q, theta3


# -- the writer -------------------------------------------------------------------


def test_pencil_builders_match_reference_loops():
    for pencil, p, q, _ in random_cases(60, 1):
        dim = p + q
        assert tau_polynomials(pencil, p, dim) == tuple(ref_quadratic_form(a, dim) for a in pencil)
        assert psi_from_pencil(pencil, p) == ref_psi(pencil, p)
        assert theta2_from_pencil(pencil, p) == ref_theta2(pencil, p)
        assert theta4_from_pencil(pencil, p) == ref_theta4(pencil, p)
        assert eta_identity_residual(pencil, p) == ref_eta_residual(pencil, p)


def test_quadratic_form_poly_of_an_unsymmetric_matrix():
    matrix = RationalMatrix([[1, 2, 0], [4, 0, -1], [0, 1, 3]])
    assert quadratic_form_poly(matrix, 4) == ref_quadratic_form(matrix, 4)
    with pytest.raises(ValueError):
        quadratic_form_poly(matrix, 2)


def test_structure_identities_er1_er2_with_nonzero_theta3():
    seen = 0
    for pencil, p, q, theta3 in random_cases(40, 2):
        if not q:
            continue
        residuals = check_structure_identities(NormalFormData(p, q, pencil, theta3))
        er1, er2 = ref_er1_er2(pencil, p, theta3)
        assert residuals["er1"].value == er1
        assert residuals["er2"].value == er2
        seen += not (er1.is_zero or er2.is_zero)
    assert seen >= 10  # the comparison is not between zeros


# -- the reader -------------------------------------------------------------------


def test_psi_pencil_reader_matches_reference():
    rng = random.Random(3)
    for pencil, p, q, _ in random_cases(40, 3):
        # psi with stray parts of every other bidegree of a cubic
        psi = psi_from_pencil(pencil, p)
        if q:
            psi = psi + random_homogeneous(rng, p, q, [(3, 0), (1, 2), (0, 3)], rng.randint(0, 4))
        got, stray = _extract_psi_pencil(psi, p, q)
        want, want_stray = ref_extract_psi_pencil(psi, p, q)
        assert got == want == pencil
        assert stray == want_stray


def test_psi_pencil_reader_degenerate_blocks():
    psi = Polynomial(3, {(3, 0, 0): 1, (1, 2, 0): 2})
    assert _extract_psi_pencil(psi, 3, 0) == ((), psi)
    psi = Polynomial(2, {(0, 3): 1, (1, 2): -1})
    got = _extract_psi_pencil(psi, 0, 2)
    assert got == ref_extract_psi_pencil(psi, 0, 2)
    assert got[1] == psi


def test_theta_reader_matches_reference():
    rng = random.Random(4)
    degrees = [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]
    for p, q in [(1, 0), (3, 0), (2, 1), (3, 2), (4, 3), (1, 3)]:
        for _ in range(8):
            theta = random_homogeneous(rng, p, q, degrees if q else [(4, 0)], rng.randint(0, 8))
            assert _theta_components(theta, p) == ref_theta_components(theta, p)
    theta = Polynomial(2, {(0, 4): 3, (0, 2): 1})
    with pytest.raises(ValueError, match="homogeneous of degree 4"):
        _theta_components(theta, 0)


# -- one sum-of-squares power -----------------------------------------------------


@pytest.mark.parametrize("dim, indices", [
    (0, []), (1, [0]), (3, []), (3, [1]), (5, range(5)), (7, [0, 2, 5]), (6, [5, 1, 3]),
])
def test_block_radial_matches_repeated_products(dim, indices):
    for power in range(5):
        assert block_radial(dim, indices, power) == ref_block_radial(dim, indices, power)


def test_radial_power_matches_repeated_products():
    for n in range(9):
        for e in range(5):
            assert radial_power(n, e) == ref_block_radial(n, range(n), e)
    with pytest.raises(ValueError):
        radial_power(2, -1)
    assert block_radial(3, [0, 2], 2).coefficient((2, 0, 2)) == rational(2)
