"""Builders for polynomial solutions of |grad f|^2 = g^2 |x|^(2g-2).

Three construction routes live here:

* `make_primitive` builds the two-norm family in any degree: pick a
  coordinate subspace H, write xi = |x_H| and eta = |x_{H^perp}|, and take
  the harmonic-oscillator-like alternating sum over even binomials.  For odd
  degree the xi factor appears to odd powers, so H must be a single
  coordinate line.

* `make_canonical_quartic` builds |x|^4 - 8 |x_K|^2 |x_{K^perp}|^2 for the
  first k coordinates, the standard quartic with a prescribed split.  It is
  the primitive quartic h_k, so it is `make_primitive(4, n, k)` with
  k <= n // 2.

* `NormalFormData` + `assemble_from_normal_form` realize a quartic from its
  rotated normal form x_n^4 + 2 phi x_n^2 + 8 psi x_n + theta, where the
  pencil fixes psi, theta_4, theta_2, theta_0 and only the mixed cubic
  theta_3 is free data.  `search_isoparametric_pencil` enumerates small
  rational pencils and a grid of theta_3 coefficients, keeping exactly the
  candidates whose assembled quartic is eikonal.  Pencils are screened
  once per set of seeds, not once per rotated copy: rotating or reordering
  a pencil does not change whether it passes `check_pencil`.  The same
  orbit rule decides the theta_3 = 0 quartic: the quartic of a reordered,
  conjugated pencil is the seed set's quartic composed with an orthogonal
  map, so it is eikonal exactly when the seed set's is, and its theta_3
  basis has the same length.  A pencil with an empty basis is therefore
  decided by its seed set alone.  Otherwise the eikonal residual is
  quadratic in theta_3, so it is expanded once per pencil, on the packed
  partials of the theta_3 = 0 quartic and of the basis, and every grid
  point is decided in integer arithmetic, without assembling its quartic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, combinations_with_replacement, product
from math import comb, lcm
from operator import mul

from .matrices import RationalMatrix, random_rational_orthogonal
from .pencils import (
    Pencil,
    psi_from_pencil,
    theta0_poly,
    theta2_from_pencil,
    theta3_basis,
    theta4_from_pencil,
    validate_pencil,
)
from .polyring import (
    PolyTextError,
    Polynomial,
    _linear_combination,
    _meaningful_lines,
    _packed_gradient,
    _poly_from_lines,
    _radial_terms,
    _squares,
    block_radial,
    extend_dimension,
    homogeneous_split,
    poly_mul,
    poly_to_text,
    rational,
)


class InfeasibleParameters(ValueError):
    """Raised when (p, q, nu) cannot carry an eikonal quartic."""


def make_primitive(g: int, n: int, dimh: int) -> Polynomial:
    """The degree-g solution with distinguished subspace of dimension dimh.

    H is spanned by the first dimh coordinates.  Odd g requires dimh == 1.
    """
    if not isinstance(g, int) or g < 1:
        raise ValueError("degree g must be a positive integer")
    if not isinstance(n, int) or n < 1:
        raise ValueError("ambient dimension n must be a positive integer")
    if not isinstance(dimh, int) or not 0 <= dimh <= n:
        raise ValueError("dimh must lie between 0 and n")
    if g % 2 == 1 and dimh != 1:
        raise ValueError("odd degree requires dimh == 1")
    out = Polynomial.zero(n)
    for k in range(g // 2 + 1):
        if g % 2:
            head = Polynomial.monomial(n, (g - 2 * k,) + (0,) * (n - 1))
        else:
            head = block_radial(n, range(dimh), g // 2 - k)
        sign = -1 if k % 2 else 1
        term = poly_mul(head, block_radial(n, range(dimh, n), k))
        out = out + sign * comb(g, 2 * k) * term
    return out


def make_canonical_quartic(n: int, k: int) -> Polynomial:
    """|x|^4 - 8 |x_K|^2 |x_{K^perp}|^2 = h_k with K the first k coordinates."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("ambient dimension n must be a positive integer")
    if not isinstance(k, int) or not 0 <= k <= n // 2:
        raise ValueError("k must lie between 0 and n // 2")
    return make_primitive(4, n, k)


@dataclass(frozen=True)
class NormalFormData:
    """The free data of a quartic normal form: a pencil plus theta_3.

    p and q are the +1 / -3 eigenvalue multiplicities of the x_n^2
    coefficient; the pencil holds q symmetric p x p matrices; theta3 is a
    polynomial in p + q variables (xi first, eta last) of xi-degree 3 and
    eta-degree 1, or zero.
    """

    p: int
    q: int
    pencil: Pencil
    theta3: Polynomial

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError("p and q must be nonnegative")
        if len(self.pencil) != self.q:
            raise ValueError(f"expected {self.q} pencil matrices, got {len(self.pencil)}")
        object.__setattr__(self, "pencil", validate_pencil(self.pencil, self.p))
        if not isinstance(self.theta3, Polynomial):
            raise ValueError("theta3 must be a Polynomial")
        if self.theta3.dimension != self.p + self.q:
            raise ValueError("theta3 must live in p + q variables")
        if not self.theta3.is_zero and not self.theta3.is_homogeneous(4):
            raise ValueError("theta3 must be homogeneous of degree 4")
        blocks = [range(self.p), range(self.p, self.p + self.q)]
        if not set(homogeneous_split(self.theta3, blocks)) <= {(3, 1)}:
            raise ValueError("theta3 must have xi-degree 3 and eta-degree 1")

    @property
    def dimension(self) -> int:
        """Number of normal-form variables, p + q."""
        return self.p + self.q

    @property
    def ambient_dimension(self) -> int:
        """Number of variables of the assembled quartic, p + q + 1."""
        return self.p + self.q + 1


def assemble_from_normal_form(data: NormalFormData) -> Polynomial:
    """x_n^4 + 2 phi x_n^2 + 8 psi x_n + theta, with x_n the last variable."""
    p, q = data.p, data.q
    m = p + q
    dim = m + 1
    xn = Polynomial.variable(dim, m)
    phi = block_radial(dim, range(p)) - 3 * block_radial(dim, range(p, m))
    psi = extend_dimension(psi_from_pencil(data.pencil, p), dim)
    theta = extend_dimension(
        theta4_from_pencil(data.pencil, p)
        + theta2_from_pencil(data.pencil, p)
        + theta0_poly(p, q)
        + data.theta3,
        dim,
    )
    return xn ** 4 + 2 * poly_mul(phi, xn ** 2) + 8 * poly_mul(psi, xn) + theta


def normal_form_data_to_text(data: NormalFormData) -> str:
    """Serialize as: a `p q` header, q matrix blocks, then theta_3."""
    lines = [f"{data.p} {data.q}"]
    for matrix in data.pencil:
        lines.append("")
        for i in range(data.p):
            lines.append(" ".join(str(matrix[i, j]) for j in range(data.p)))
    lines.append("")
    lines.append(poly_to_text(data.theta3))
    return "\n".join(lines) + "\n"


def normal_form_data_from_text(text: str) -> NormalFormData:
    """Parse the `normal_form_data_to_text` format.

    Comments (#) and blank lines are ignored between sections.  Errors carry
    1-based line numbers of the offending input line.
    """
    numbered = list(_meaningful_lines(text))
    if not numbered:
        raise PolyTextError("empty normal-form input", 1)
    line_no, header = numbered[0]
    parts = header.split()
    if len(parts) != 2:
        raise PolyTextError("header must be 'p q'", line_no)
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise PolyTextError("header must hold two integers", line_no) from None
    if p < 0 or q < 0:
        raise PolyTextError("p and q must be nonnegative", line_no)
    end = 1 + p * q  # the header, then q blocks of p matrix rows
    rows = []
    for line_no, row in numbered[1:end]:
        tokens = row.split()
        if len(tokens) != p:
            raise PolyTextError(f"matrix row must hold {p} entries", line_no)
        try:
            rows.append([rational(tok) for tok in tokens])
        except (ValueError, ZeroDivisionError):
            raise PolyTextError("matrix entries must be rationals", line_no) from None
    if len(numbered) < end:
        raise PolyTextError("unexpected end of normal-form input", numbered[-1][0])
    if len(numbered) == end:
        raise PolyTextError("missing theta_3 polynomial section", numbered[-1][0])
    pencil = [RationalMatrix(rows[i * p:(i + 1) * p]) for i in range(q)]
    theta3 = _poly_from_lines(iter(numbered[end:]))
    if theta3.dimension != p + q:
        raise PolyTextError(
            f"theta_3 must use {p + q} variables, found {theta3.dimension}",
            numbered[end][0],
        )
    try:
        return NormalFormData(p, q, tuple(pencil), theta3)
    except ValueError as exc:
        raise PolyTextError(str(exc), numbered[0][0]) from None


def _seed_matrices(p: int, nu: int) -> list[RationalMatrix]:
    """Rank-2*nu seeds built from +/-1 blocks on disjoint coordinate pairs.

    Different block choices can build the same matrix: diagonal blocks on
    the pairs (0, 2), (1, 3) and on (0, 3), (1, 2) both give
    diag(1, 1, -1, -1).  Each matrix is kept once, where it is first built.
    """
    if nu == 0:
        return [RationalMatrix.zeros(p, p)]
    pairs = list(combinations(range(p), 2))
    seeds: dict[tuple, RationalMatrix] = {}
    for chosen in combinations(pairs, nu):
        flat = [i for pair in chosen for i in pair]
        if len(set(flat)) != 2 * nu:
            continue
        for kinds in product("DO", repeat=nu):
            entries = [[rational(0)] * p for _ in range(p)]
            for (j, k), kind in zip(chosen, kinds):
                if kind == "D":
                    entries[j][j] = rational(1)
                    entries[k][k] = rational(-1)
                else:
                    entries[j][k] = rational(1)
                    entries[k][j] = rational(1)
            matrix = RationalMatrix(entries)
            seeds.setdefault(matrix.entries, matrix)
    return list(seeds.values())


_THETA3_COEFFICIENTS = tuple(
    rational(num, den)
    for num, den in ((0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1),
                     (1, 2), (-1, 2), (1, 4), (-1, 4), (4, 1), (-4, 1))
)
# the grid in integers: c = k / _GRID_DENOMINATOR for k in _GRID_NUMERATORS
_GRID_DENOMINATOR = lcm(*(c.denominator for c in _THETA3_COEFFICIENTS))
_GRID_NUMERATORS = tuple(
    int(c.numerator * (_GRID_DENOMINATOR // c.denominator)) for c in _THETA3_COEFFICIENTS
)
_GRID_COEFFICIENT = dict(zip(_GRID_NUMERATORS, _THETA3_COEFFICIENTS))


@cache
def _conjugations(p: int) -> tuple[RationalMatrix, ...]:
    """Identity, single-coordinate sign flips, and a few Cayley rotations."""
    out = [RationalMatrix.identity(p)]
    for i in range(p):
        diag = [rational(-1) if j == i else rational(1) for j in range(p)]
        out.append(RationalMatrix.diagonal(diag))
    if p >= 2:
        out.extend(random_rational_orthogonal(p, seed) for seed in (1, 2, 3))
    return tuple(out)


def _grid_decider(f0: Polynomial, lifted: list[Polynomial], eikonal0: bool):
    """Exact test of the grid points of f0 + sum_i c_i B_i, from one expansion.

    B_i is the lifted 8 b_i.  The eikonal residual of the grid point
    c_i = k_i / D (D = _GRID_DENOMINATOR) is quadratic in c, and D^2 times
    it is

        D^2 R0 + D sum_i k_i L_i + sum_{i <= j} k_i k_j Q'_ij,

    with R0 f0's eikonal residual, L_i = 2 <grad f0, grad B_i>,
    Q'_ii = |grad B_i|^2 and Q'_ij = 2 <grad B_i, grad B_j> for i < j.
    f0 and each B_i are packed once, and each of these polynomials is one
    `polyring._linear_combination` of their packed partials; with
    `eikonal0` (R0 = 0) the D^2 R0 column is left empty.  Each packed key
    gives one integer row, over the lcm of the columns' denominators.  The
    returned function takes the integer numerators k and is True exactly
    when every row's dot product with
    (1, k_1, .., k_b, k_1 k_1, k_1 k_2, .., k_b k_b) is zero, checking the
    rows in descending key order, which is grlex order, and stopping at the
    first nonzero one.
    """
    n, base, d = f0.dimension, 7, _GRID_DENOMINATOR  # the residual has degree 6
    (g0, d0), *grads = (_packed_gradient(f, base) for f in (f0, *lifted))
    pairs = list(combinations_with_replacement(range(len(lifted)), 2))
    columns = [[] if eikonal0 else [
        (d * d, d0 * d0, _squares(g0)),
        (-16 * d * d, 1, [(_radial_terms(n, base, range(n), 3), None)]),
    ]]
    columns += [[(2 * d, d0 * db, zip(g0, gb))] for gb, db in grads]
    for i, j in pairs:
        (gi, di), (gj, dj) = grads[i], grads[j]
        columns.append([(1 if i == j else 2, di * dj, zip(gi, gj))])
    packed = [_linear_combination(n, base, column) for column in columns]
    scale = lcm(*(c.denominator for c in packed))
    rows = []
    for key in sorted(set().union(*(c.numerators for c in packed)), reverse=True):
        if any(row := tuple(c.numerators.get(key, 0) * (scale // c.denominator) for c in packed)):
            rows.append(row)

    def is_eikonal(ks: tuple[int, ...]) -> bool:
        point = (1, *ks, *[ks[i] * ks[j] for i, j in pairs])
        return not any(sum(map(mul, row, point)) for row in rows)

    return is_eikonal


def search_isoparametric_pencil(
    p: int, q: int, nu: int, budget: int = 10 ** 6
) -> list[NormalFormData]:
    """Enumerate small rational pencils and return the eikonal candidates.

    Candidates are pencil seeds (pairwise +/-1 blocks, conjugated by a fixed
    list of exact rotations) combined with theta_3 = sum_i c_i 8 b_i over the
    trilinear eigenspace basis b_i, with every c_i in {0, +/-1/4, +/-1/2,
    +/-1, +/-2, +/-4}.  A pencil is a tuple of q distinct seed indices
    under one rotation C; each seed is conjugated once per rotation, and a
    pencil met before (under an earlier rotation) is skipped by the ids of
    its conjugated seeds.  `check_pencil` decides the trace, spectrum and
    cube identity A_eta^3 = |eta|^2 A_eta exactly, and is called once per
    seed set, on the raw seeds in index order: `.passed` is the same for
    C^T A_i C, since C^T C = I keeps every product identity and trace, and
    for any order of the matrices, since every condition is symmetric in
    them.  The empty pencil (q = 0) is admissible.  The theta_3 = 0
    quartic f0 is decided once per seed set too, on the same raw seeds:
    for the pencil (C^T A_sigma(i) C)_i, f0 is the seed set's f0 composed
    with the orthogonal map diag(C, P_sigma, 1), as psi, theta_4, theta_2,
    theta_0 and phi are all equivariant, and the eikonal equation is
    O(n)-invariant; the eigenspace dimensions, and with them the length of
    the theta_3 basis, do not change under conjugation either.  So a
    pencil with an empty basis is a hit exactly when its seed set's f0 is
    eikonal, and no quartic is assembled for it; a pencil with a nonempty
    basis leaves f0's residual out in that case and expands it otherwise.
    The eikonal residual of the assembled quartic f0 + sum_i c_i B_i (B_i
    the lifted 8 b_i) is quadratic in the c_i, so for each such pencil it
    is expanded once, on the packed partials of f0 and the B_i, into
    integer rows (`_grid_decider`), and each theta_3 grid point is decided
    exactly by integer dot products with those rows; theta_3 and the
    normal-form data are built only for hits.  Pencils and
    grid points both count as examined candidates, and the search stops
    once `budget` of them have been examined.  The result order is
    deterministic.
    """
    from .analysis import check_eikonal, check_pencil

    if p < 0 or q < 0 or nu < 0:
        raise ValueError("p, q, nu must be nonnegative")
    if budget < 1:
        raise ValueError("budget must be positive")
    if 2 * nu > p:
        raise InfeasibleParameters(
            f"nu = {nu} needs rank 2*nu <= p = {p} for the +/-1 eigenspaces"
        )
    if nu > 0 and 2 * nu != p + 1 - q:
        raise InfeasibleParameters(
            f"a nonzero pencil forces 2*nu = p + 1 - q; got 2*{nu} != {p + 1 - q}"
        )

    examined = 0
    hits: list[NormalFormData] = []
    seeds = _seed_matrices(p, nu)
    # ids of the distinct conjugated seeds, so that pencils are keyed by ints
    interned: dict[tuple, int] = {}
    seen_pencils: set[tuple[int, ...]] = set()
    # check_pencil(...).passed by sorted seed indices, exact as said above
    passed: dict[tuple[int, ...], bool] = {}
    # by the same key, on the same raw seeds: (the theta_3 = 0 quartic is
    # eikonal, the theta_3 basis is empty), exact for the whole orbit
    orbit: dict[tuple[int, ...], tuple[bool, bool]] = {}
    zero3 = Polynomial.zero(p + q)
    for conj in _conjugations(p):
        conj_t = conj.transpose()
        conjugated = [conj_t @ a @ conj for a in seeds]
        ids = [interned.setdefault(m.entries, len(interned)) for m in conjugated]
        for idx in product(range(len(seeds)), repeat=q):
            if nu > 0 and q > 1 and len(set(idx)) != q:
                continue
            key = tuple(ids[i] for i in idx)
            if key in seen_pencils:
                continue
            seen_pencils.add(key)
            examined += 1
            if examined > budget:
                return hits
            seed_set = tuple(sorted(idx))
            if idx:
                if seed_set not in passed:
                    passed[seed_set] = check_pencil(tuple(seeds[i] for i in seed_set), p).passed
                if not passed[seed_set]:
                    continue
            if seed_set not in orbit:
                raw = tuple(seeds[i] for i in seed_set)
                f_raw = assemble_from_normal_form(NormalFormData(p, q, raw, zero3))
                orbit[seed_set] = (check_eikonal(f_raw, 4).is_zero, not theta3_basis(raw, p))
            eikonal0, flat = orbit[seed_set]
            pencil = tuple(conjugated[i] for i in idx)
            if flat:
                if eikonal0:
                    hits.append(NormalFormData(p, q, pencil, zero3))
                continue
            basis = theta3_basis(pencil, p)
            f0 = assemble_from_normal_form(NormalFormData(p, q, pencil, zero3))
            lifted = [extend_dimension(8 * b, p + q + 1) for b in basis]
            is_eikonal = _grid_decider(f0, lifted, eikonal0)
            for ks in product(_GRID_NUMERATORS, repeat=len(basis)):
                examined += 1
                if examined > budget:
                    return hits
                if not is_eikonal(ks):
                    continue
                theta3 = zero3
                for k, b in zip(ks, basis):
                    if k:
                        theta3 = theta3 + 8 * _GRID_COEFFICIENT[k] * b
                hits.append(NormalFormData(p, q, pencil, theta3))
    return hits
