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
