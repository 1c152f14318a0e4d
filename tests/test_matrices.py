"""Exact linear algebra tests: inversion, kernels, Cayley orthogonality."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import eikq.matrices as matrices_module
from eikq import Polynomial, substitute_linear
from eikq.matrices import (
    RationalMatrix,
    cayley_orthogonal,
    orthonormalize_rational,
    random_rational_orthogonal,
    symmetric_eigen,
)


def test_matmul_and_transpose():
    a = RationalMatrix([[1, 2], [3, 4]])
    b = RationalMatrix([[0, 1], [1, 0]])
    assert a @ b == RationalMatrix([[2, 1], [4, 3]])
    assert a.transpose() == RationalMatrix([[1, 3], [2, 4]])
    assert a.trace() == 5


def test_inverse_round_trip():
    m = RationalMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    assert m @ m.inverse() == RationalMatrix.identity(3)
    assert m.inverse() @ m == RationalMatrix.identity(3)


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [2, 4]]).inverse()


def test_symmetry_and_skew_predicates():
    assert RationalMatrix([[1, 5], [5, -2]]).is_symmetric()
    assert RationalMatrix([[1, "1/2", 0], ["2/4", 3, -1], [0, -1, 7]]).is_symmetric()
    assert not RationalMatrix([[1, 2, 0], [2, 3, -1], [0, 1, 7]]).is_symmetric()
    assert not RationalMatrix([[0, 1], [0, 0]]).is_symmetric()
    assert not RationalMatrix([[1, 0, 0], [0, 1, 0]]).is_symmetric()
    assert RationalMatrix([[4]]).is_symmetric()
    assert RationalMatrix([]).is_symmetric()
    assert RationalMatrix([[0, 3], [-3, 0]]).is_skew()
    assert not RationalMatrix([[0, 3], [3, 0]]).is_skew()


def test_kernel_basis():
    m = RationalMatrix([[1, 1, 0], [0, 0, 1]])
    basis = m.kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    assert m.matvec(v) == (0, 0)
    assert v == (Fraction(-1), Fraction(1), Fraction(0)) or v == (-1, 1, 0)


def test_kernel_of_eigenprojector():
    # ker(A - I) for A = diag(1, 1, -3) is the first two coordinates
    a = RationalMatrix.diagonal([1, 1, -3])
    shifted = a - RationalMatrix.identity(3)
    basis = shifted.kernel_basis()
    assert len(basis) == 2
    for v in basis:
        assert shifted.matvec(v) == (0, 0, 0)


def test_cayley_orthogonal_is_exactly_orthogonal():
    skew = RationalMatrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
    q = cayley_orthogonal(skew)
    assert q.is_orthogonal()
    with pytest.raises(ValueError):
        cayley_orthogonal(RationalMatrix([[1, 0], [0, 1]]))


def test_random_rational_orthogonal_seeds():
    seen = set()
    for seed in range(20):
        q = random_rational_orthogonal(4, seed)
        assert q.is_orthogonal()
        seen.add(q.entries)
    assert len(seen) > 15  # seeds give distinct matrices
    assert random_rational_orthogonal(4, 3) == random_rational_orthogonal(4, 3)


def _orthogonal_by_product(m: RationalMatrix) -> bool:
    """The definition, Q^T Q = I in rationals, as a reference for the integer test."""
    return m.is_square and m.transpose() @ m == RationalMatrix.identity(m.n_rows)


def _orthogonality_cases(n: int, seed: int, row: int, col: int, bump: Fraction):
    u = random_rational_orthogonal(n, seed)
    block = RationalMatrix(
        [[*random_rational_orthogonal(n - 1, seed + 1).row(i), 0] for i in range(n - 1)]
        + [[0] * (n - 1) + [1]]
    )
    perturbed = [list(r) for r in u.entries]
    perturbed[row % n][col % n] += bump
    return [
        u,
        u.transpose() @ block,  # U^T diag(W, 1)
        u.scale(bump + 1),
        RationalMatrix(perturbed),
        RationalMatrix([list(r) for r in u.entries[: max(n - 1, 1)]] + ([] if n > 1 else [[0]])),
    ]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10 ** 6),
    row=st.integers(min_value=0, max_value=7),
    col=st.integers(min_value=0, max_value=7),
    bump=st.fractions(min_value=-2, max_value=2, max_denominator=50).filter(bool),
)
def test_is_orthogonal_matches_the_product(n, seed, row, col, bump):
    for m in _orthogonality_cases(n, seed, row, col, bump):
        assert m.is_orthogonal() == _orthogonal_by_product(m)


@pytest.mark.parametrize("n", range(1, 9))
def test_is_orthogonal_examples(n):
    orthogonal, block, scaled, perturbed, non_square = _orthogonality_cases(
        n, n, n - 1, 0, Fraction(1, 7)
    )
    assert orthogonal.is_orthogonal() and block.is_orthogonal()
    assert not scaled.is_orthogonal() and not perturbed.is_orthogonal()
    assert not non_square.is_orthogonal()
    assert not RationalMatrix([[1, 0, 0], [0, 1, 0]]).is_orthogonal()
    assert RationalMatrix([]).is_orthogonal()


def test_orthonormalize_rational_perfect_square_case():
    basis = orthonormalize_rational([(3, 4), (4, -3)])
    assert basis == [
        (Fraction(3, 5), Fraction(4, 5)),
        (Fraction(4, 5), Fraction(-3, 5)),
    ]


def test_orthonormalize_rational_impossible_case():
    # span{(1,1)} has no rational unit vector
    assert orthonormalize_rational([(1, 1)]) is None


def test_orthonormalize_rational_rejects_floats():
    with pytest.raises(TypeError, match="float"):
        orthonormalize_rational([(1, 0.5)])


def reference_product(a: RationalMatrix, b: RationalMatrix) -> list[list[Fraction]]:
    """Term-by-term Fraction sum of a @ b."""
    return [
        [sum((Fraction(a[i, k]) * Fraction(b[k, j]) for k in range(a.n_cols)), Fraction(0))
         for j in range(b.n_cols)]
        for i in range(a.n_rows)
    ]


def assert_product_correct(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """a @ b against the reference, entry by entry, as Fractions in lowest terms."""
    c = a @ b
    expected = reference_product(a, b)
    assert [list(row) for row in c.entries] == expected
    assert (c.n_rows, c.n_cols) == (a.n_rows, b.n_cols if a.n_rows else 0)
    assert_fraction_rows(c.entries)
    return c


def assert_fraction_rows(rows) -> None:
    """Every row a tuple of Fractions in lowest terms."""
    for row in rows:
        assert type(row) is tuple
        for v in row:
            assert type(v) is Fraction
            assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1


# zero is drawn often, so sums cancel and entries vanish
_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=30),
)


def matrices(n_rows: int, n_cols: int):
    return st.lists(
        st.lists(_ENTRIES, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows
    ).map(RationalMatrix)


@st.composite
def chains(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    return [draw(matrices(r, c)) for r, c in zip(dims, dims[1:])]


@given(chains())
@settings(max_examples=80, deadline=None)
def test_matmul_matches_term_by_term_sum(chain):
    product = chain[0]
    for factor in chain[1:]:
        product = assert_product_correct(product, factor)
    # the chained product does not depend on the bracketing
    right = chain[-1]
    for factor in reversed(chain[:-1]):
        right = factor @ right
    assert right == product


def test_matmul_small_and_degenerate_shapes():
    one = RationalMatrix([[Fraction(-3, 4)]])
    assert assert_product_correct(one, RationalMatrix([[Fraction(2, 3)]])) == (
        RationalMatrix([[Fraction(-1, 2)]])
    )
    # n x 0 @ 0 x m: no inner terms, and an empty right factor has no columns
    empty_cols = RationalMatrix([[], [], []])
    assert assert_product_correct(empty_cols, RationalMatrix([])).entries == ((), (), ())
    assert assert_product_correct(RationalMatrix([]), RationalMatrix([])).entries == ()
    # mixed denominators that cancel to integers and to zero
    a = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(-1, 6), 0]])
    b = RationalMatrix([[Fraction(2, 1), Fraction(-2, 3)], [Fraction(-3, 1), 1]])
    assert assert_product_correct(a, b) == RationalMatrix(
        [[0, 0], [Fraction(-1, 3), Fraction(1, 9)]]
    )
    assert assert_product_correct(RationalMatrix.zeros(2, 3), RationalMatrix.identity(3)).is_zero()
    with pytest.raises(ValueError, match="shape mismatch"):
        RationalMatrix.identity(2) @ RationalMatrix.identity(3)


def test_internal_operations_keep_fraction_entries():
    a = RationalMatrix([[Fraction(1, 2), 3], [-1, Fraction(5, 7)]])
    b = RationalMatrix([[Fraction(-1, 4), 0], [2, Fraction(2, 7)]])
    for m in (a + b, a - b, -a, a.scale(Fraction(3, 5)), a.transpose(), a @ b):
        assert type(m) is RationalMatrix
        assert_fraction_rows(m.entries)
    assert (a + b) == RationalMatrix([[Fraction(1, 4), 3], [1, 1]])
    assert (a - b) + b == a
    assert -(-a) == a
    assert a.scale(2) == a + a
    assert a.transpose().transpose() == a


def to_sympy(m: RationalMatrix) -> sympy.Matrix:
    return sympy.Matrix(
        m.n_rows, m.n_cols,
        [sympy.Rational(int(v.numerator), int(v.denominator)) for row in m.entries for v in row],
    )


def from_sympy(m: sympy.Matrix) -> list[list[Fraction]]:
    return [[Fraction(int(v.p), int(v.q)) for v in m.row(i)] for i in range(m.rows)]


@st.composite
def eliminable_matrices(draw):
    """Up to 6 x 7 (square half the time, 0 x 0 included), with zero rows and
    rows that are sums of earlier rows, so that ranks drop."""
    n_rows = draw(st.integers(0, 6))
    n_cols = n_rows if draw(st.booleans()) else draw(st.integers(1, 7))
    rows: list[list[Fraction]] = []
    for _ in range(n_rows):
        kind = draw(st.sampled_from(("entries", "entries", "zero", "sum")))
        if kind == "zero":
            rows.append([Fraction(0)] * n_cols)
        elif kind == "sum" and len(rows) >= 2:
            picked = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=3))
            rows.append([sum(column, Fraction(0)) for column in zip(*picked)])
        else:
            rows.append(draw(st.lists(_ENTRIES, min_size=n_cols, max_size=n_cols)))
    return RationalMatrix(rows)


@given(eliminable_matrices())
@settings(max_examples=150, deadline=None)
def test_elimination_matches_sympy(m):
    reference = to_sympy(m)
    basis = m.kernel_basis()
    # sympy also sets one free variable to 1 and the others to 0
    assert [[Fraction(v) for v in vec] for vec in basis] == [
        [row[0] for row in from_sympy(v)] for v in reference.nullspace()
    ]
    assert_fraction_rows(basis)
    if not m.is_square:
        with pytest.raises(ValueError, match="non-square"):
            m.inverse()
    elif reference.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
    else:
        inverse = m.inverse()
        assert [[Fraction(v) for v in row] for row in inverse.entries] == from_sympy(
            reference.inv()
        )
        assert_fraction_rows(inverse.entries)


@st.composite
def antisymmetric_matrices(draw):
    n = draw(st.integers(1, 6))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(_ENTRIES)
            rows[j][i] = -rows[i][j]
    return RationalMatrix(rows)


@given(antisymmetric_matrices())
@settings(max_examples=60, deadline=None)
def test_cayley_orthogonal_matches_sympy(skew):
    eye = sympy.eye(skew.n_rows)
    s = to_sympy(skew)
    q = cayley_orthogonal(skew)
    assert [[Fraction(v) for v in row] for row in q.entries] == from_sympy(
        (eye - s).inv() * (eye + s)
    )
    assert_fraction_rows(q.entries)
    assert q.is_orthogonal()


@st.composite
def independent_sets(draw):
    """1 to n independent vectors in dimension n <= 4.  Half the time they are
    scaled triangular combinations of the columns of a Cayley rotation, so
    the orthonormal basis is rational; otherwise small rationals, whose
    basis mostly is not."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    if draw(st.booleans()):
        columns = random_rational_orthogonal(n, draw(st.integers(0, 10 ** 6))).transpose()
        vectors = []
        for m in range(k):
            weights = draw(st.lists(_ENTRIES, min_size=m, max_size=m))
            weights.append(draw(_ENTRIES.filter(bool)))
            scale = draw(_ENTRIES.filter(bool))
            vectors.append([
                scale * sum((w * c for w, c in zip(weights, column)), Fraction(0))
                for column in zip(*columns.entries[: m + 1])
            ])
    else:
        vectors = draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n),
                                min_size=k, max_size=k))
    assume(sympy.Matrix(vectors).rank() == k)
    return vectors


@given(independent_sets())
@settings(max_examples=150, deadline=None)
def test_orthonormalize_rational_matches_sympy(vectors):
    reference = sympy.GramSchmidt(
        [sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in vec])
         for vec in vectors],
        orthonormal=True,
    )
    basis = orthonormalize_rational(vectors)
    if all(e.is_Rational for vec in reference for e in vec):
        assert basis == [tuple(Fraction(int(e.p), int(e.q)) for e in vec) for vec in reference]
        assert_fraction_rows(basis)
    else:
        assert basis is None
    # sympy refuses dependent sets; a dependent or zero vector adds nothing
    total = [sum(column, Fraction(0)) for column in zip(*vectors)]
    zero = [Fraction(0)] * len(vectors[0])
    assert orthonormalize_rational(vectors + [total]) == basis
    assert orthonormalize_rational(vectors + [zero]) == basis


@st.composite
def symmetric_matrices(draw):
    """Q diag(L) Q^T for a rational orthogonal Q, with L drawn from {+1, -3}
    (the spectrum of phi) or from small rationals; or a symmetric matrix
    with free entries."""
    n = draw(st.integers(0, 10))
    kind = draw(st.sampled_from(["phi", "spectrum", "entries"]))
    if kind == "entries":
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(_ENTRIES)
        return RationalMatrix(rows)
    values = st.sampled_from([1, -3]) if kind == "phi" else _ENTRIES
    spectrum = draw(st.lists(values, min_size=n, max_size=n))
    if n == 0:
        return RationalMatrix([])
    q = random_rational_orthogonal(n, draw(st.integers(0, 10 ** 6)))
    return q @ RationalMatrix.diagonal(spectrum) @ q.transpose()


@given(symmetric_matrices())
@settings(max_examples=150, deadline=None)
def test_symmetric_eigen_matches_numpy(m):
    n = m.n_rows
    values, vectors = symmetric_eigen(m)
    assert len(values) == len(vectors) == n
    assert values == sorted(values)
    if n == 0:
        return
    a = np.array([[float(x) for x in row] for row in m.entries])
    v = np.array(vectors)
    scale = np.linalg.norm(a)
    reference, _ = np.linalg.eigh(a)
    assert np.abs(np.array(values) - reference).max() <= 1e-12 * scale
    assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-12
    assert np.abs(a @ v - v * np.array(values)).max() <= 1e-12 * scale


def test_symmetric_eigen_of_a_diagonal_matrix_needs_no_rotation():
    values, vectors = symmetric_eigen(RationalMatrix.diagonal([1, -3, Fraction(1, 3), -3]))
    assert values == [-3.0, -3.0, 1 / 3, 1.0]
    assert vectors == [
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ]
    assert symmetric_eigen(RationalMatrix([])) == ([], [])
    assert symmetric_eigen(RationalMatrix([[7]])) == ([7.0], [[1.0]])


def test_symmetric_eigen_refuses_past_the_sweep_cap(monkeypatch):
    m = RationalMatrix([[1, 2, 3], [2, 4, 5], [3, 5, 6]])
    assert len(symmetric_eigen(m)[0]) == 3
    monkeypatch.setattr(matrices_module, "JACOBI_SWEEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        symmetric_eigen(m)


def test_symmetric_eigen_needs_a_symmetric_matrix():
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_eigen(RationalMatrix([[1, 2], [3, 4]]))


# The one stored form, against a list-of-lists of Fractions kept here.

def _ref_rref(rows: list[list[Fraction]], n_cols: int):
    """Reduced row echelon form in Fractions: the nonzero rows and their pivots."""
    rows, pivots = [list(r) for r in rows], []
    for c in range(n_cols):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _ref_kernel(rows: list[list[Fraction]], n_cols: int) -> list[tuple]:
    reduced, pivots = _ref_rref(rows, n_cols)
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[free]
        basis.append(tuple(vec))
    return basis


def _ref_inverse(rows: list[list[Fraction]]):
    n = len(rows)
    reduced, pivots = _ref_rref(
        [[*row, *(Fraction(int(i == j)) for j in range(n))] for i, row in enumerate(rows)], 2 * n
    )
    return [row[n:] for row in reduced] if pivots[:n] == list(range(n)) else None


def _ref_product(a, b, n_cols_b: int) -> list[list[Fraction]]:
    return [[sum((row[k] * b[k][j] for k in range(len(row))), Fraction(0))
             for j in range(n_cols_b)] for row in a]


def _transposed(rows, n_cols: int) -> list[list[Fraction]]:
    return [[row[j] for row in rows] for j in range(n_cols)]


_SMALL = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def _reference_matrices(draw, n_rows: int | None = None, n_cols: int | None = None):
    """A Fraction list of lists, zero, symmetric, skew, orthogonal or any,
    so that each predicate meets both answers."""
    kind = draw(st.sampled_from(("any", "any", "zero", "symmetric", "skew", "orthogonal")))
    if kind != "any" and n_rows is None and n_cols is None:
        n_rows = n_cols = draw(st.integers(0, 5))
    if n_rows is None:
        n_rows = draw(st.integers(0, 5))
    if n_cols is None:
        n_cols = draw(st.integers(0, 5)) if n_rows else 0
    if kind == "orthogonal" and n_rows == n_cols:
        return [list(r) for r in random_rational_orthogonal(n_rows, draw(st.integers(0, 99))).entries]
    rows = [[draw(st.one_of(st.just(Fraction(0)), _SMALL)) for _ in range(n_cols)]
            for _ in range(n_rows)]
    if kind == "zero":
        return [[Fraction(0)] * n_cols for _ in range(n_rows)]
    if n_rows == n_cols and kind in ("symmetric", "skew"):  # A + A^T or A - A^T
        sign = 1 if kind == "symmetric" else -1
        return [[rows[i][j] + sign * rows[j][i] for j in range(n_cols)] for i in range(n_rows)]
    return rows


@st.composite
def _spelled(draw, rows):
    """The same entries spelled as ints, strings or Fractions."""
    def spell(v: Fraction):
        style = draw(st.sampled_from(("fraction", "string", "int")))
        if style == "int" and v.denominator == 1:
            return int(v)
        if style == "string":
            scale = draw(st.integers(1, 3))  # not always in lowest terms
            return f"{v.numerator * scale}/{v.denominator * scale}"
        return v
    return RationalMatrix([[spell(v) for v in row] for row in rows])


def _assert_form(m: RationalMatrix, rows: list[list[Fraction]]) -> None:
    """m holds rows in the one form: integers over den > 0 in lowest terms."""
    assert type(m.den) is int and m.den > 0
    assert all(type(v) is int for row in m.rows for v in row)
    assert gcd(m.den, *(v for row in m.rows for v in row)) == 1
    assert type(m.rows) is tuple and all(type(row) is tuple for row in m.rows)
    assert [[Fraction(v, m.den) for v in row] for row in m.rows] == rows
    assert [list(row) for row in m.entries] == rows
    assert all(m[i, j] == v and m.row(i)[j] == v for i, row in enumerate(rows) for j, v in enumerate(row))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_one_form_matches_the_fraction_reference(data):
    a_rows = data.draw(_reference_matrices())
    n_rows, n_cols = len(a_rows), len(a_rows[0]) if a_rows else 0
    a = data.draw(_spelled(a_rows))
    _assert_form(a, a_rows)
    assert (a.n_rows, a.n_cols, a.is_square) == (n_rows, n_cols, n_rows == n_cols)
    # equal entries give an equal (den, rows), however they were spelled
    again = data.draw(_spelled(a_rows))
    assert (again.den, again.rows) == (a.den, a.rows) and again == a
    b_rows = data.draw(_reference_matrices(n_rows, n_cols))
    b = data.draw(_spelled(b_rows))
    assert (a == b) == (a_rows == b_rows) == ((a.den, a.rows) == (b.den, b.rows))

    _assert_form(a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(a_rows, b_rows)])
    _assert_form(a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(a_rows, b_rows)])
    _assert_form(-a, [[-x for x in r] for r in a_rows])
    c = data.draw(_SMALL)
    _assert_form(a.scale(c), [[x * c for x in r] for r in a_rows])
    _assert_form(a.transpose(), _transposed(a_rows, n_cols))
    k = data.draw(st.integers(0, 5))
    right_rows = data.draw(_reference_matrices(n_cols, k))
    right = data.draw(_spelled(right_rows))
    _assert_form(a @ right, _ref_product(a_rows, right_rows, len(right_rows[0]) if right_rows else 0))
    assert a.kernel_basis() == _ref_kernel(a_rows, n_cols)
    assert a.is_zero() == all(x == 0 for r in a_rows for x in r)

    square = n_rows == n_cols
    transposed = _transposed(a_rows, n_cols)
    assert a.is_symmetric() == (square and transposed == a_rows)
    assert a.is_skew() == (square and transposed == [[-x for x in r] for r in a_rows])
    assert a.is_orthogonal() == (square and _ref_product(transposed, a_rows, n_cols) == [
        [Fraction(int(i == j)) for j in range(n_cols)] for i in range(n_rows)
    ])
    if not square:
        for method in (a.trace, a.inverse):
            with pytest.raises(ValueError, match="non-square"):
                method()
        return
    assert a.trace() == sum((a_rows[i][i] for i in range(n_rows)), Fraction(0))
    inverse = _ref_inverse(a_rows)
    if inverse is None:
        with pytest.raises(ValueError, match="singular"):
            a.inverse()
    else:
        _assert_form(a.inverse(), inverse)


def test_the_form_is_read_only_and_floats_are_refused():
    m = RationalMatrix([[Fraction(1, 2), 3]])
    assert (m.den, m.rows) == (2, ((1, 6),))
    for name, value in (("den", 1), ("rows", ((1, 3),)), ("entries", ())):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
    assert (m.den, m.rows) == (2, ((1, 6),))
    assert RationalMatrix.__hash__ is None
    assert isinstance(RationalMatrix.__dict__["from_float"], classmethod)
    with pytest.raises(TypeError, match="float"):
        RationalMatrix([[1, 0.5]])
    # the float is refused before the row lengths are compared
    with pytest.raises(TypeError, match="float"):
        RationalMatrix([[0.5], [1, 2]])
    with pytest.raises(ValueError, match="unequal"):
        RationalMatrix([[1], [1, 2]])


@st.composite
def _polynomials_and_rotations(draw):
    """(f, R): f with up to 6 terms of degree <= 3 in n <= 4 variables, and a
    square R of size n as `_reference_matrices` draws it."""
    n = draw(st.integers(1, 4))
    monomials = st.tuples(*[st.integers(0, 3)] * n).filter(lambda m: sum(m) <= 3)
    terms = draw(st.dictionaries(monomials, _SMALL.filter(bool), max_size=6))
    return Polynomial(n, terms), draw(_reference_matrices(n, n))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_substitute_linear_reads_the_form_as_the_entries(data):
    f, rows = data.draw(_polynomials_and_rotations())
    r = data.draw(_spelled(rows))
    by_form, by_entries = substitute_linear(f, r), substitute_linear(f, r.entries)
    assert by_form == by_entries
    assert list(by_form.terms.items()) == list(by_entries.terms.items())
    assert by_form == substitute_linear(f, rows)
