"""Exact rational matrices and the small linear algebra the library needs.

Everything here is exact: entries are rationals, and orthogonality means
Q^T Q equals the identity as rational numbers, not up to rounding.
Rational orthogonal matrices for tests and searches come from the Cayley
transform of rational antisymmetric matrices, which stays inside the
rationals.

Products run in Python ints: each operand is put over the lcm of its own
denominators, the integer numerators are multiplied and summed, and each
output entry costs one rational division; `is_orthogonal` makes none, since
it compares the integer column products with D^2 directly.
`_integer_entries` and `_int_matmul` are that kernel; `analysis.check_pencil`
runs it on a whole pencil over one denominator and makes no rational at all.  Elimination runs
on the same integer rows: `_row_reduce` is one fraction-free Gauss-Jordan
loop behind both `kernel_basis` and `inverse`, and rationals are made only
when the answer is read off the reduced rows.  `orthonormalize_rational` is
fraction-free Gram-Schmidt on integer multiples of its vectors, with one
`math.isqrt` per kept vector deciding whether it normalizes rationally.
The integer expansion of the pencil identity lives in `eikq.pencils`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import mul
from typing import Sequence

from .polyring import rational, rational_from_float


class RationalMatrix:
    """Immutable rectangular matrix with exact rational entries."""

    __slots__ = ("entries",)

    def __init__(self, rows: Sequence[Sequence]):
        entries = tuple(tuple(rational(v) for v in row) for row in rows)
        if entries and any(len(r) != len(entries[0]) for r in entries):
            raise ValueError("rows have unequal lengths")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "RationalMatrix":
        return cls([[0] * n_cols for _ in range(n_rows)])

    @classmethod
    def diagonal(cls, values: Sequence) -> "RationalMatrix":
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_float(cls, rows) -> "RationalMatrix":
        """Entry-wise exact rationalization of a float matrix."""
        return cls([[rational_from_float(float(v)) for v in row] for row in rows])

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __getitem__(self, index: tuple[int, int]):
        i, j = index
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    def _require_same_shape(self, other: "RationalMatrix") -> None:
        if self.n_rows != other.n_rows or self.n_cols != other.n_cols:
            raise ValueError(
                f"shape mismatch: {self.n_rows}x{self.n_cols} vs {other.n_rows}x{other.n_cols}"
            )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._require_same_shape(other)
        return _raw_matrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return _raw_matrix(tuple(tuple(-a for a in row) for row in self.entries))

    def scale(self, scalar) -> "RationalMatrix":
        c = rational(scalar)
        return _raw_matrix(tuple(tuple(a * c for a in row) for row in self.entries))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError(
                f"shape mismatch: {self.n_rows}x{self.n_cols} @ {other.n_rows}x{other.n_cols}"
            )
        (rows,), da = _integer_entries((self,))
        (other_rows,), db = _integer_entries((other,))
        den = da * db
        return _raw_matrix(
            tuple(tuple(Fraction(v, den) for v in row) for row in _int_matmul(rows, other_rows))
        )

    def transpose(self) -> "RationalMatrix":
        return _raw_matrix(tuple(zip(*self.entries)))

    def trace(self):
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum(self.entries[i][i] for i in range(self.n_rows))

    def is_symmetric(self) -> bool:
        return self.is_square and self == self.transpose()

    def is_skew(self) -> bool:
        return self.is_square and self.transpose() == -self

    def is_orthogonal(self) -> bool:
        """Q^T Q = I, in integers: with A = D Q over the lcm D of the
        denominators, each pair of columns i <= j has dot product D^2 delta_ij."""
        if not self.is_square:
            return False
        (rows,), den = _integer_entries((self,))
        columns, square = list(zip(*rows)), den * den
        return all(
            sum(map(mul, columns[i], columns[j])) == (square if i == j else 0)
            for i in range(len(columns)) for j in range(i, len(columns))
        )

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def max_abs(self):
        """Largest entry magnitude as an exact rational (0 for empty)."""
        values = [abs(v) for row in self.entries for v in row]
        return max(values) if values else rational(0)

    def matvec(self, vector: Sequence) -> tuple:
        v = [rational(x) for x in vector]
        if len(v) != self.n_cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def inverse(self) -> "RationalMatrix":
        """Exact inverse: [D A | I] reduced to [diag(a) | R], so A^-1 = D diag(a)^-1 R."""
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.n_rows
        (rows,), den = _integer_entries((self,))
        reduced, pivots = _row_reduce(
            [row + [int(j == i) for j in range(n)] for i, row in enumerate(rows)]
        )
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return _raw_matrix(
            tuple(
                tuple(Fraction(den * v, row[i]) for v in row[n:]) for i, row in enumerate(reduced)
            )
        )

    def kernel_basis(self) -> list[tuple]:
        """Rational basis of the nullspace, one vector per free column set to 1."""
        (rows,), _ = _integer_entries((self,))
        reduced, pivots = _row_reduce(rows)
        basis = []
        for fc in (c for c in range(self.n_cols) if c not in pivots):
            vec = [rational(0)] * self.n_cols
            vec[fc] = rational(1)
            for row, pc in zip(reduced, pivots):
                vec[pc] = Fraction(-row[fc], row[pc])
            basis.append(tuple(vec))
        return basis

    def __repr__(self):
        return f"RationalMatrix({self.n_rows}x{self.n_cols})"


def _integer_entries(matrices: Sequence[RationalMatrix]) -> tuple[list[list[list[int]]], int]:
    """Each matrix's entries times D, as lists of integer rows, and D.

    D is the lcm of every denominator of every matrix, so one D serves the
    whole sequence and products of the integer matrices carry a power of D.
    """
    den = math.lcm(*(v.denominator for m in matrices for row in m.entries for v in row))
    return [
        [[v.numerator * (den // v.denominator) for v in row] for row in m.entries]
        for m in matrices
    ], den


def _row_reduce(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    The first nonzero entry a of a column, in a row not yet used, is the
    pivot; every other row r becomes (a r - b pivot_row) / gcd, b being r's
    entry in that column.  Returns the nonzero rows and their pivot columns;
    row[c] / row[pivots[k]] is the reduced row echelon entry of row k.
    """
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for c in range(n_cols):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        pivot_row = rows[r]
        a = pivot_row[c]
        for i, row in enumerate(rows):
            b = row[c]
            if b and i != r:
                row = [a * v - b * w for v, w in zip(row, pivot_row)]
                g = math.gcd(*row)
                rows[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _int_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Product of two integer matrices given as rows."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _raw_matrix(entries: tuple[tuple, ...]) -> RationalMatrix:
    """Internal constructor bypassing coercion; entries must be Fractions."""
    matrix = RationalMatrix.__new__(RationalMatrix)
    object.__setattr__(matrix, "entries", entries)
    return matrix


def orthonormalize_rational(vectors: Sequence[Sequence]) -> list[tuple] | None:
    """Rational orthonormal basis of span(vectors), or None when none exists.

    Fraction-free Gram-Schmidt: each vector w, scaled to integers, becomes
    |u|^2 w - <u, w> u over its gcd against every kept u, and is dropped if
    zero.  A kept w is a positive multiple of the rational Gram-Schmidt
    vector, so w / |w| is rational exactly when |w|^2 is a perfect square.
    """
    ortho: list[tuple[list[int], int]] = []
    result = []
    # every entry is coerced first, so a float anywhere raises even after a None
    for v in [[rational(x) for x in v] for v in vectors]:
        den = math.lcm(*(x.denominator for x in v))
        w = [x.numerator * (den // x.denominator) for x in v]
        for u, uu in ortho:
            uw = sum(map(mul, u, w))
            if uw:
                w = [uu * a - uw * b for a, b in zip(w, u)]
                g = math.gcd(*w)
                if g > 1:
                    w = [a // g for a in w]
        ww = sum(a * a for a in w)
        if ww:
            norm = math.isqrt(ww)
            if norm * norm != ww:
                return None
            ortho.append((w, ww))
            result.append(tuple(Fraction(a, norm) for a in w))
    return result


# 25 sweeps were the most seen on 1000 random symmetric matrices up to
# n = 20, half with clustered {+1, -3} spectra; needing more than this is a defect
JACOBI_SWEEPS = 50


def symmetric_eigen(matrix: RationalMatrix) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues of a symmetric matrix in ascending order, and its
    orthonormal eigenvectors as the columns of a list of rows, in floats.

    Cyclic Jacobi rotations (Golub and Van Loan, *Matrix Computations*,
    8.5) on the float image of the matrix, until no off-diagonal entry
    exceeds 2^-53 times the largest entry; a diagonal matrix comes back at
    once.  Only +, *, /, sqrt, signs and comparisons are used, which IEEE
    754 rounds correctly, so the result is the same bit for bit on every host.
    RuntimeError after JACOBI_SWEEPS sweeps.
    """
    if not matrix.is_symmetric():
        raise ValueError("symmetric_eigen needs a symmetric matrix")
    n = matrix.n_rows
    a = [[float(x) for x in row] for row in matrix.entries]
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    limit = max((abs(x) for row in a for x in row), default=0.0) * 2.0 ** -53
    for _ in range(JACOBI_SWEEPS):
        if all(abs(a[p][q]) <= limit for p, q in pairs):
            break
        for p, q in (pair for pair in pairs if a[pair[0]][pair[1]] != 0.0):
            # J = the rotation by t = tan(angle) that zeroes a[p][q]; A <- J^T A J, V <- V J
            theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            for row in a + v:
                row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
            a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],
                          [s * x + c * y for x, y in zip(a[p], a[q])])
            a[p][q] = a[q][p] = 0.0
    else:
        raise RuntimeError(f"Jacobi eigenvalues did not converge in {JACOBI_SWEEPS} sweeps")
    order = sorted(range(n), key=lambda i: a[i][i])
    return [a[i][i] for i in order], [[row[i] for i in order] for row in v]


def cayley_orthogonal(skew: RationalMatrix) -> RationalMatrix:
    """(I - S)^{-1} (I + S) for antisymmetric S; always rational orthogonal."""
    if not skew.is_skew():
        raise ValueError("Cayley transform needs an antisymmetric matrix")
    n = skew.n_rows
    eye = RationalMatrix.identity(n)
    return (eye - skew).inverse() @ (eye + skew)


def random_rational_orthogonal(n: int, seed: int) -> RationalMatrix:
    """Deterministic rational orthogonal matrix from a seeded Cayley transform.

    Entries of the antisymmetric generator are small rationals so the
    resulting orthogonal matrix keeps modest denominators.
    """
    rng = random.Random(seed)
    rows = [[rational(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = rational(rng.randint(-3, 3), rng.randint(1, 4))
            rows[i][j] = value
            rows[j][i] = -value
    return cayley_orthogonal(RationalMatrix(rows))
