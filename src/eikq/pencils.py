"""Symmetric matrix pencils behind quartic normal forms.

A pencil is a tuple of symmetric p x p rational matrices (A_1, ..., A_q).
Polynomials built here live in the ring of p + q variables ordered as
xi_1..xi_p, eta_1..eta_q; callers that need the ambient quartic ring append
the distinguished last variable themselves.

The pencil determines every x_n-coefficient of a normal-form quartic except
the mixed cubic theta_3:

    psi     = xi^T A_eta xi                     with A_eta = sum_i eta_i A_i
    theta_4 = |xi|^4 - 2 sum_i (xi^T A_i xi)^2
    theta_2 = 8 xi^T A_eta^2 xi - 6 |xi|^2 |eta|^2
    theta_0 = |eta|^4

The helpers below construct these components exactly, expose the quadratic
forms tau_i = xi^T A_i xi, scalarize the cubic matrix identity
A_eta^3 = |eta|^2 A_eta, and enumerate the trilinear monomial basis that any
admissible theta_3 must come from (one factor from each eigenspace of A_i).

Everything is laid out in integers from `matrices._integer_entries`, the
B_i = D A_i over one denominator D, with no polynomial in between.  One
private writer, `_packed_forms`, lays out every polynomial of the form
sum_alpha eta^alpha xi^T M_alpha xi (tau_i, psi, the A_eta^2 part of
theta_2, the identity residual), each monomial at the sum of its
variables' keys (`polyring._variable_keys`); the sums of squares |xi|^2,
|eta|^2 and their powers go at their multinomial keys
(`polyring._radial_terms`), and theta_4 and theta_2 are each one
`polyring._linear_combination`.  The `_packed_*` pieces stay packed for
`analysis.check_structure_identities`; the public builders unpack them
once, and `eikq.normalform` reads them back with
`polyring.homogeneous_split`.  theta_0 is `polyring.block_radial`.
The identity is expanded once, in integers, by `_identity_coefficients`:
`analysis.check_pencil` tests its coefficient matrices for zero and
`eta_identity_residual` writes them out as a polynomial.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations, permutations
from math import lcm
from typing import Iterator, Sequence

from .matrices import RationalMatrix, _int_matmul, _integer_entries, _matrix
from .polyring import (
    PackedPolynomial,
    Polynomial,
    _linear_combination,
    _radial_terms,
    _variable_keys,
    block_radial,
    poly_mul,
)

Pencil = tuple[RationalMatrix, ...]


def validate_pencil(pencil: Sequence[RationalMatrix], p: int) -> Pencil:
    """Check shapes and symmetry; return the pencil as a tuple."""
    out = tuple(pencil)
    for index, matrix in enumerate(out):
        if not matrix.is_square or matrix.n_rows != p:
            raise ValueError(f"pencil matrix {index} is not {p} x {p}")
        if not matrix.is_symmetric():
            raise ValueError(f"pencil matrix {index} is not symmetric")
    return out


def _packed_forms(n: int, p: int, base: int, items) -> dict[int, int]:
    """sum_alpha eta^alpha xi^T M_alpha xi at `polyring._pack`'s keys, in integers.

    `items` yields (alpha, M_alpha): alpha a tuple of eta indices (repeats
    allowed, eta_i being variable p + i) and M_alpha the rows of a p x p
    integer matrix, not necessarily symmetric.  The ring has n variables and
    the base exceeds len(alpha) + 2.  This is the one place that lays out
    (xi, eta) monomials of pencil data, by `polyring`'s key rule.
    """
    keys = _variable_keys(n, base)
    out: dict[int, int] = defaultdict(int)
    for alpha, rows in items:
        start = sum(keys[p + i] for i in alpha)
        for j in range(p):
            row = rows[j]
            if row[j]:  # most pencil entries are 0
                out[start + 2 * keys[j]] += row[j]
            for k in range(j + 1, p):
                coeff = row[k] + rows[k][j]
                if coeff:
                    out[start + keys[j] + keys[k]] += coeff
    return out


def quadratic_form_poly(matrix: RationalMatrix, dimension: int) -> Polynomial:
    """x^T M x with x occupying the first p variables of the ring."""
    if matrix.n_rows > dimension:
        raise ValueError("quadratic form does not fit in the ring")
    forms = _packed_forms(dimension, matrix.n_rows, 3, [((), matrix.rows)])
    return PackedPolynomial(dimension, forms, 3, matrix.den).unpack()


def quadratic_form_matrix(f: Polynomial, indices: Sequence[int]) -> RationalMatrix:
    """Recover the symmetric matrix of a quadratic form in the given variables.

    Raises ValueError if f touches any variable outside `indices` or is not
    homogeneous of degree 2.  The matrix is built in integers, over twice
    the lcm of f's denominators, where each off-diagonal half is an integer.
    """
    if not f.is_zero and not f.is_homogeneous(2):
        raise ValueError("not a homogeneous quadratic")
    position = {var: slot for slot, var in enumerate(indices)}
    p = len(indices)
    den = 2 * lcm(*(c.denominator for c in f.terms.values()))
    rows = [[0] * p for _ in range(p)]
    for mono, coeff in f.terms.items():
        support = [i for i, e in enumerate(mono) if e]
        if any(i not in position for i in support):
            raise ValueError("quadratic form touches unexpected variables")
        value = coeff.numerator * (den // coeff.denominator)
        if len(support) == 1:
            j = position[support[0]]
            rows[j][j] = value
        else:
            j, k = (position[i] for i in support)
            rows[j][k] = rows[k][j] = value // 2
    return _matrix(den, rows)


def tau_polynomials(pencil: Pencil, p: int, dimension: int | None = None) -> tuple[Polynomial, ...]:
    """The quadratic forms tau_i = xi^T A_i xi, as polynomials."""
    dim = p if dimension is None else dimension
    return tuple(quadratic_form_poly(a, dim) for a in pencil)


def psi_from_pencil(pencil: Pencil, p: int) -> Polynomial:
    """psi = xi^T A_eta xi in the (p + q)-variable ring."""
    return _packed_psi(*_integer_entries(pencil), p, 4).unpack()


def theta4_from_pencil(pencil: Pencil, p: int) -> Polynomial:
    """theta_4 = |xi|^4 - 2 sum_i tau_i^2 in the (p + q)-variable ring."""
    return _packed_theta4(*_integer_entries(pencil), p, 5).unpack()


def theta2_from_pencil(pencil: Pencil, p: int) -> Polynomial:
    """theta_2 = 8 xi^T A_eta^2 xi - 6 |xi|^2 |eta|^2."""
    return _packed_theta2(*_integer_entries(pencil), p, 5).unpack()


def theta0_poly(p: int, q: int) -> Polynomial:
    """theta_0 = |eta|^4 in the (p + q)-variable ring."""
    return block_radial(p + q, range(p, p + q), 2)


def eta_identity_residual(pencil: Pencil, p: int) -> Polynomial:
    """xi^T (A_eta^3 - |eta|^2 A_eta) xi as a polynomial identity in eta.

    Zero exactly when the cubic pencil identity holds for every eta: the
    matrices of `_identity_coefficients`, laid out in integers over D^3.
    """
    return _packed_eta_identity(*_integer_entries(pencil), p, 6).unpack()


# The packed pieces below take the B_i = D A_i and D of
# `matrices._integer_entries(pencil)` and a base above their degree.


def _packed_psi(mats, den: int, p: int, base: int) -> PackedPolynomial:
    """psi = sum_i eta_i xi^T B_i xi / D."""
    n = p + len(mats)
    return PackedPolynomial(n, _packed_forms(n, p, base, (((i,), b) for i, b in enumerate(mats))),
                            base, den)


def _packed_theta4(mats, den: int, p: int, base: int) -> PackedPolynomial:
    """theta_4 = |xi|^4 - 2 sum_i (xi^T B_i xi)^2 / D^2, each square by unordered pairs."""
    n = p + len(mats)
    taus = [list(_packed_forms(n, p, base, [((), b)]).items()) for b in mats]
    return _linear_combination(n, base, [
        (1, 1, [(_radial_terms(n, base, range(p), 2), None)]),
        (-2, den * den, [(tau, tau) for tau in taus]),
    ])


def _packed_theta2(mats, den: int, p: int, base: int) -> PackedPolynomial:
    """theta_2 = 8 sum_{i, l} eta_i eta_l xi^T B_i B_l xi / D^2 - 6 |xi|^2 |eta|^2."""
    n = p + len(mats)
    items = (((i, l), _int_matmul(a, b)) for i, a in enumerate(mats) for l, b in enumerate(mats))
    xi = _radial_terms(n, base, range(p), 1)
    eta = list(_radial_terms(n, base, range(p, n), 1))
    return _linear_combination(n, base, [
        (8, den * den, [(_packed_forms(n, p, base, items).items(), None)]),
        (-6, 1, [(xi, eta)]),
    ])


def _packed_eta_identity(mats, den: int, p: int, base: int) -> PackedPolynomial:
    """The forms of `_identity_coefficients` over D^3."""
    n = p + len(mats)
    squares = [_int_matmul(b, b) for b in mats]
    forms = _packed_forms(n, p, base, _identity_coefficients(mats, squares, den))
    return PackedPolynomial(n, forms, base, den**3)


def _identity_coefficients(mats, squares, den: int) -> Iterator[tuple]:
    """(alpha, C_alpha) with D^3 (A_eta^3 - |eta|^2 A_eta) = sum eta^alpha C_alpha.

    `mats` are the B_i = D A_i of `_integer_entries(pencil)`, `squares` the
    B_i^2.  The symmetric integer C_alpha come lazily, so a zero test can
    stop at the first nonzero one: the cubes eta_i^3, (B_i^2 - D^2 I) B_i;
    the coordinate pairs eta_i^2 eta_j for i != j, `_pair_sum` less D^2 B_j;
    the triples eta_i eta_j eta_k for i < j < k, M + M^T for M `_triple_half`.
    """
    d2 = den * den
    for i, (b, sq) in enumerate(zip(mats, squares)):
        shifted = [row.copy() for row in sq]
        for k, row in enumerate(shifted):
            row[k] -= d2
        yield (i, i, i), _int_matmul(shifted, b)
    targets = [[[d2 * v for v in row] for row in b] for b in mats]
    for i, j in permutations(range(len(mats)), 2):
        yield (i, i, j), _pair_sum(squares[i], mats[i], mats[j], targets[j])
    for triple in combinations(range(len(mats)), 3):
        m = _triple_half(*(mats[k] for k in triple))
        yield triple, [[u + v for u, v in zip(row, col)] for row, col in zip(m, zip(*m))]


def _pair_sum(sq_s, b_s, b_t, target) -> list[list[int]]:
    """B_s^2 B_t + B_t B_s^2 + B_s B_t B_s - target for symmetric B_s, B_t.

    B_t B_s^2 is the transpose of B_s^2 B_t, so three products suffice.
    """
    x = _int_matmul(sq_s, b_t)
    y = _int_matmul(_int_matmul(b_s, b_t), b_s)
    return [
        [u + v + w - t for u, v, w, t in zip(x_row, x_col, y_row, t_row)]
        for x_row, x_col, y_row, t_row in zip(x, zip(*x), y, target)
    ]


def _triple_half(a, b, c) -> list[list[int]]:
    """M = abc + acb + bac, so that the sum over the six orders is M + M^T.

    The transposes of abc, acb and bac are cba, bca and cab for symmetric
    a, b, c; M is a (bc + cb) + (ba) c, four products instead of twelve.
    """
    bc = _int_matmul(b, c)
    sym = [[u + v for u, v in zip(row, col)] for row, col in zip(bc, zip(*bc))]
    first = _int_matmul(a, sym)
    second = _int_matmul(_int_matmul(b, a), c)
    return [[u + v for u, v in zip(r1, r2)] for r1, r2 in zip(first, second)]


def eigenspace_bases(
    matrix: RationalMatrix,
) -> tuple[list[tuple], list[tuple], list[tuple]]:
    """Rational bases of ker(A - I), ker(A + I), ker(A), in that order."""
    p = matrix.n_rows
    ident = RationalMatrix.identity(p)
    plus = (matrix - ident).kernel_basis()
    minus = (matrix + ident).kernel_basis()
    zero = matrix.kernel_basis()
    return plus, minus, zero


def linear_form(vector: Sequence, dimension: int) -> Polynomial:
    """<v, x> over the first len(v) variables."""
    return Polynomial(
        dimension,
        {(0,) * j + (1,) + (0,) * (dimension - 1 - j): value for j, value in enumerate(vector)},
    )


def theta3_basis(pencil: Pencil, p: int) -> list[Polynomial]:
    """Trilinear monomial basis available to theta_3, one eta factor each.

    For each A_i the cubic factor must take one linear form from each of the
    three eigenspaces (+1, -1, 0); matrices with a trivial eigenspace
    contribute nothing.
    """
    q = len(pencil)
    dim = p + q
    basis: list[Polynomial] = []
    for i, a in enumerate(pencil):
        plus, minus, zero = eigenspace_bases(a)
        eta = Polynomial.variable(dim, p + i)
        for u in plus:
            fu = linear_form(u, dim)
            for v in minus:
                fuv = poly_mul(fu, linear_form(v, dim))
                for w in zero:
                    basis.append(poly_mul(poly_mul(fuv, linear_form(w, dim)), eta))
    return basis
