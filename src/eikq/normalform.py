"""Rotation of an eikonal quartic into its normal form.

Any quartic solution of |grad f|^2 = 16 |x|^6 attains the value 1 somewhere
on the unit sphere, and after an orthogonal change of variables sending e_n
to such a maximizer it reads

    f = x_n^4 + 2 phi(x') x_n^2 + 8 psi(x') x_n + theta(x')

with phi having eigenvalues +1 and -3 only.  A second block rotation
diagonalizes phi, splitting x' into xi (the +1 block, size p) and eta (the
-3 block, size q); psi then collapses to xi^T A_eta xi, which is where the
matrix pencil comes from, and theta splits by eta-degree into theta_0,
theta_2, theta_3, theta_4 with no eta-cubic part.  Both are read by one
reader, `polyring.homogeneous_split` over the blocks (xi, eta): A_i is the
matrix of d psi_21 / d eta_i (psi_21 the part of bidegree (2, 1)), every
other part of psi is stray, and theta_k is the part of xi-degree k.

One pipeline, `_extract(g, rotation, tol)`, reads the normal form off
g = f(rotation x), and tol = 0 means exact.  The routes differ only in where
the rotations come from.  With an exact orthogonal `rotation`, phi is
diagonalized by rational row reduction and every structural fact must hold
exactly: a failure is a wrong target (ValueError) when the data merely does
not expose the normal form, or `NotEikonalEvidence` when it contradicts
eikonality itself.  Without a rotation, a numeric sphere ascent finds a
maximizer, a float eigensolver diagonalizes phi, both rotations are
rationalized entry by entry, and every deviation is accumulated, exactly,
into `extraction_residual` and judged against REJECT_TOL.

`obtain_normal_form`, behind `eikq normalform`, decides which rotation
and which sign (f or -f; congruence includes the sign) the normal form is
read from, exact routes (`exact_normal_form`, which `classify` shares)
first.  With a valid rotation R, `rotate_if_eikonal` makes the exact zero
test on the sparse f(R x) instead of on f, and hands the same f(R x) to
the extraction; a nonzero residual is still measured on f.  The float
route, `sphere_maximize` included, serves only `eikq normalform`:
`classify` decides the remaining inputs by a closed-form certificate
instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import check_eikonal
from .constructors import NormalFormData
from .matrices import RationalMatrix, orthonormalize_rational
from .pencils import Pencil, quadratic_form_matrix
from .polyring import (
    Polynomial,
    _raw,
    block_radial,
    homogeneous_split,
    partial_derivative,
    poly_to_text,
    rational,
    rational_from_float,
    substitute_linear,
)

# The one rejection threshold: a deviation beyond it (an eikonal residual,
# a float extraction residual) means f is not eikonal.
REJECT_TOL = 1e-6
FAR_FROM_EIKONAL = "the eikonal residual is far from zero"
EXACT_NEEDS_POSITION = (
    "--exact needs f in normal-form position or an explicit rotation; "
    "rerun without --exact to allow the float path"
)
# with a valid rotation, --exact fails only on an f that is not exactly eikonal
EXACT_NEEDS_EIKONAL = (
    "--exact needs an exactly eikonal f, but its eikonal residual is nonzero; "
    "rerun without --exact to allow the float path"
)

_HALTON_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                  59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)


class NotEikonalEvidence(Exception):
    """Extraction met structure that no eikonal quartic can have."""


@dataclass(frozen=True)
class NormalForm(NormalFormData):
    """Normal-form data together with how it was read off f.

    `rotation` is the exact orthogonal matrix U with f(U x) in normal form
    (on the float route, the rationalization of a numeric rotation).  The
    theta components are polynomials in p + q variables, xi first; theta_3
    is the free part of `NormalFormData`, validated like any other.
    `extraction_residual` bounds everything that was discarded on the way:
    deviations of the x_n^4 coefficient from 1, of the cubic layer from 0,
    off-diagonal debris of phi, stray psi components, and the eta-cubic part
    of theta.  It is exact; reports write its float image.
    """

    rotation: RationalMatrix
    theta0: Polynomial
    theta2: Polynomial
    theta4: Polynomial
    arithmetic: str
    extraction_residual: Fraction

    @property
    def phi_eigenvalues(self) -> tuple[int, ...]:
        """The snapped +1/-3 diagonal of phi."""
        return (1,) * self.p + (-3,) * self.q

    def to_data(self) -> NormalFormData:
        """Forget the rotation; keep the free data (pencil, theta_3)."""
        return NormalFormData(self.p, self.q, self.pencil, self.theta3)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "phi_eigenvalues": list(self.phi_eigenvalues),
            "arithmetic": self.arithmetic,
            "extraction_residual": float(self.extraction_residual),
            "rotation": [
                [str(self.rotation[i, j]) for j in range(self.rotation.n_cols)]
                for i in range(self.rotation.n_rows)
            ],
            "pencil": [
                [[str(a[i, j]) for j in range(a.n_cols)] for i in range(a.n_rows)]
                for a in self.pencil
            ],
            "theta0": poly_to_text(self.theta0),
            "theta2": poly_to_text(self.theta2),
            "theta3": poly_to_text(self.theta3),
            "theta4": poly_to_text(self.theta4),
        }


def _theta_components(theta: Polynomial, p: int) -> dict[int, Polynomial]:
    """Split a quartic in (xi, eta) by eta-degree; keys are xi-degrees 0..4."""
    if not theta.is_homogeneous(4):
        raise ValueError("theta must be homogeneous of degree 4")
    parts = homogeneous_split(theta, [range(p), range(p, theta.dimension)])
    zero = Polynomial.zero(theta.dimension)
    return {k: parts.get((k, 4 - k), zero) for k in range(5)}


def _refuse_stray(stray: Polynomial, tol: float, message: str) -> Fraction:
    """Exact magnitude of a part that must vanish; NotEikonalEvidence beyond tol.

    With tol = 0 any nonzero coefficient is refused, however small.
    """
    deviation = stray.max_abs_coefficient()
    if deviation > tol:
        raise NotEikonalEvidence(message)
    return deviation


_THETA_STRAY = "theta has a component linear in xi, which no eikonal quartic allows"


def split_theta(
    theta: Polynomial, p: int, q: int, tol: float = 0.0
) -> tuple[Polynomial, Polynomial, Polynomial, Polynomial]:
    """(theta_0, theta_2, theta_3, theta_4) of a quartic in (xi, eta).

    The component of xi-degree 1 must vanish (up to `tol` on rationalized
    float data); a larger remnant is evidence against eikonality.
    """
    if theta.dimension != p + q:
        raise ValueError("theta must live in p + q variables")
    parts = _theta_components(theta, p)
    _refuse_stray(parts[1], tol, _THETA_STRAY)
    return parts[0], parts[2], parts[3], parts[4]


def _xn_layers(g: Polynomial) -> dict[int, Polynomial]:
    """Coefficients of x_n^0..x_n^4 as polynomials in the other variables."""
    m = g.dimension - 1
    buckets: dict[int, dict] = {e: {} for e in range(5)}
    for mono, coeff in g.terms.items():
        buckets[mono[-1]][mono[:-1]] = coeff
    return {e: _raw(m, terms) for e, terms in buckets.items()}


def _extract_psi_pencil(
    psi: Polynomial, p: int, q: int
) -> tuple[Pencil, Polynomial]:
    """Read the pencil off psi = xi^T A_eta xi; return the stray terms too.

    A_i is the matrix of d psi_21 / d eta_i, psi_21 the part of xi-degree 2
    and eta-degree 1; every other part of psi is stray.
    """
    parts = homogeneous_split(psi, [range(p), range(p, p + q)])
    main = parts.pop((2, 1), Polynomial.zero(psi.dimension))
    pencil = tuple(
        quadratic_form_matrix(partial_derivative(main, p + i), range(p)) for i in range(q)
    )
    stray = {mono: c for part in parts.values() for mono, c in part.terms.items()}
    return pencil, _raw(psi.dimension, stray)


def _rational_eigenbasis(big_phi: RationalMatrix) -> tuple[RationalMatrix, int]:
    """Rational orthogonal V whose columns span the +1, then the -3 eigenspace
    of phi, and the dimension p of the +1 eigenspace."""
    m = big_phi.n_rows
    ident = RationalMatrix.identity(m)
    plus = (big_phi - ident).kernel_basis()
    minus = (big_phi + ident.scale(3)).kernel_basis()
    # phi is symmetric, so the two eigenspaces fill R^m exactly when
    # (phi - I)(phi + 3I) = 0
    if len(plus) + len(minus) != m:
        raise NotEikonalEvidence(
            "the x_n^2 coefficient has eigenvalues outside {1, -3}"
        )
    plus_on = orthonormalize_rational(plus)
    minus_on = orthonormalize_rational(minus)
    if plus_on is None or minus_on is None:
        raise ValueError(
            "no rational orthonormal eigenbasis for the x_n^2 coefficient; "
            "supply a rotation that diagonalizes it"
        )
    columns = plus_on + minus_on
    v = RationalMatrix([[columns[j][i] for j in range(m)] for i in range(m)])
    return v, len(plus_on)


def _float_eigenbasis(
    big_phi: RationalMatrix, tol: float
) -> tuple[RationalMatrix, int, float]:
    """Rationalized eigenvectors of phi, eigenvalue +1 first, then -3.

    Eigenvalues are snapped to +1 or -3 within tol; also returns p and the
    largest distance of an eigenvalue from its snapped value.
    """
    m = big_phi.n_rows
    if m == 0:
        return RationalMatrix.identity(0), 0, 0.0
    eigvals, eigvecs = np.linalg.eigh(np.array(big_phi.to_float()))
    plus, minus = [], []
    deviation = 0.0
    for index, lam in enumerate(eigvals):
        target = 1.0 if abs(lam - 1.0) <= tol else -3.0
        if abs(lam - target) > tol:
            raise NotEikonalEvidence(
                f"the x_n^2 coefficient has eigenvalue {lam}, outside {{1, -3}}"
            )
        (plus if target > 0 else minus).append(index)
        deviation = max(deviation, abs(lam - target))
    return RationalMatrix.from_float(eigvecs[:, plus + minus]), len(plus), deviation


def _extract(g: Polynomial, rotation: RationalMatrix, tol: float) -> NormalForm:
    """Read the normal form of f off g = f(rotation x), up to `tol`.

    tol = 0 is the exact route: every structural fact must hold exactly,
    the eigenbasis of phi is found in rational arithmetic, and a rotation
    that misses a maximizer with value 1 raises ValueError.  With tol > 0
    the eigenbasis comes from a float eigensolver, everything dropped is
    accumulated into `extraction_residual`, and any deviation above tol is
    NotEikonalEvidence.
    """
    exact = tol == 0
    m = g.dimension - 1
    layers = _xn_layers(g)
    top = layers[4] - Polynomial.constant(m, 1)
    if exact and not top.is_zero:
        raise ValueError(
            "rotation must send the last basis vector to a point with f = 1"
        )
    if exact and not layers[3].is_zero:
        raise ValueError(
            "rotation does not target a critical point of f on the sphere"
        )
    deviation = max(top.max_abs_coefficient(), layers[3].max_abs_coefficient())
    if deviation > tol:
        raise NotEikonalEvidence(
            "no sphere maximum with value 1 and critical structure was found"
        )
    residual = deviation
    big_phi = quadratic_form_matrix(rational(1, 2) * layers[2], range(m))
    if exact:
        v, p = _rational_eigenbasis(big_phi)
    else:
        v, p, deviation = _float_eigenbasis(big_phi, tol)
        residual = max(residual, rational_from_float(deviation))
    q = m - p
    if v != RationalMatrix.identity(m):
        w_rows = [list(v.row(i)) + [rational(0)] for i in range(m)]
        w_rows.append([rational(0)] * m + [rational(1)])
        w = RationalMatrix(w_rows)
        rotation = rotation @ w
        g = substitute_linear(g, w)
        layers = _xn_layers(g)
    ideal = block_radial(m, range(p)) - 3 * block_radial(m, range(p, m))
    residual = max(residual, _refuse_stray(
        rational(1, 2) * layers[2] - ideal, tol,
        "the x_n^2 coefficient did not diagonalize",
    ))
    pencil, stray = _extract_psi_pencil(rational(1, 8) * layers[1], p, q)
    residual = max(residual, _refuse_stray(
        stray, tol, "the x_n-linear coefficient is not of the form xi^T A_eta xi"
    ))
    parts = _theta_components(layers[0], p)
    residual = max(residual, _refuse_stray(parts[1], tol, _THETA_STRAY))
    return NormalForm(
        p=p,
        q=q,
        pencil=pencil,
        theta3=parts[3],
        rotation=rotation,
        theta0=parts[0],
        theta2=parts[2],
        theta4=parts[4],
        arithmetic="exact" if exact else "float",
        extraction_residual=residual,
    )


def _stacked_table(
    polys: list[Polynomial], n: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, slice]]]:
    """Stack the exponent rows of `polys` into one table.

    Returns the flat `take` index that reads the rows x ** exps of every
    polynomial out of the (D + 1) x n power table with entry (k, j) = x_j^k,
    and for each polynomial its float coefficients and the slice of its
    rows.  Terms are in canonical order, so the float sums (and ties between
    equal maxima) do not depend on the order in which the terms were given.
    """
    exps: list[tuple[int, ...]] = []
    blocks = []
    for g in polys:
        terms = g.sorted_terms()
        blocks.append((np.array([float(c) for _, c in terms]),
                       slice(len(exps), len(exps) + len(terms))))
        exps.extend(mono for mono, _ in terms)
    rows = np.array(exps, dtype=np.intp).reshape(-1, n)
    return (rows * n + np.arange(n)).ravel(), blocks


def _halton(index: int, base: int) -> float:
    result = 0.0
    fraction = 1.0
    while index > 0:
        fraction /= base
        result += fraction * (index % base)
        index //= base
    return result


def sphere_maximize(
    f: Polynomial, seeds: int = 64, tol: float = 1e-9, seed: int = 0
) -> tuple[float, ...]:
    """Numerically maximize f over the unit sphere by projected ascent.

    Starts from `seeds` low-discrepancy directions (shifted by `seed`),
    runs adaptive-step projected gradient ascent capped at 10^4 iterations
    each, and returns the best point whose tangential gradient dropped below
    `tol`.  If no start converges a warning is emitted and the best iterate
    found is returned anyway.

    Two exponent tables are built once: the rows of f followed by those of
    each d_i f, and the rows of the second partials d_i d_j f with j >= i.
    At each point the powers x_j^k, k = 0..D with D the largest exponent of
    f, are computed once; the monomials of a table are read from them by one
    `take` and one row product, and each polynomial is one dot product over
    its rows.  Every power, row product and dot is the one term-by-term
    evaluation of each polynomial would compute, so the points are the same
    bit for bit.
    """
    n = f.dimension
    if n < 1:
        raise ValueError("cannot maximize over a zero-dimensional sphere")
    if f.is_zero:
        raise ValueError("cannot maximize the zero polynomial")
    partials = [partial_derivative(f, i) for i in range(n)]
    first_index, first_blocks = _stacked_table([f, *partials], n)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    second_index, second_blocks = _stacked_table(
        [partial_derivative(partials[i], j) for i, j in pairs], n
    )
    # float exponents, so that numpy calls the same pow as x ** exps would
    degrees = np.arange(float(max(max(mono) for mono in f.terms) + 1))[:, None]

    def products(x: np.ndarray, index: np.ndarray) -> np.ndarray:
        return np.multiply.reduce((x ** degrees).take(index).reshape(-1, n), axis=1)

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray]:
        """f(x) and grad f(x)."""
        rows = products(x, first_index)
        sums = [c @ rows[s] for c, s in first_blocks]
        return float(sums[0]), np.array(sums[1:])

    def hessian(x: np.ndarray) -> np.ndarray:
        rows = products(x, second_index)
        out = np.empty((n, n))
        for (i, j), (c, s) in zip(pairs, second_blocks):
            out[i, j] = out[j, i] = c @ rows[s]
        return out

    def norm(v: np.ndarray) -> float:
        return math.sqrt(v @ v)

    def polish(
        x: np.ndarray, val: float, gvec: np.ndarray
    ) -> tuple[np.ndarray, float, np.ndarray]:
        # Newton on the first-order sphere condition grad f = lambda x;
        # quadratic convergence takes the ascent's 1e-7 down to roundoff.
        for _ in range(25):
            lam = float(gvec @ x)
            tangent = gvec - lam * x
            if norm(tangent) <= 1e-15:
                break
            projector = np.eye(n) - np.outer(x, x)
            system = projector @ hessian(x) @ projector - lam * projector + np.outer(x, x)
            try:
                delta = np.linalg.solve(system, -tangent)
            except np.linalg.LinAlgError:
                delta, *_ = np.linalg.lstsq(system, -tangent, rcond=None)
            if not np.all(np.isfinite(delta)) or norm(delta) > 0.5:
                break
            x = x + delta
            x /= norm(x)
            val, gvec = evaluate(x)
        return x, val, gvec

    bases = [_HALTON_PRIMES[i % len(_HALTON_PRIMES)] for i in range(n)]
    best_any: tuple[float, np.ndarray] | None = None
    best_conv: tuple[float, np.ndarray] | None = None
    for k in range(seeds):
        raw = np.array(
            [2.0 * _halton(seed * seeds + k + 1, b) - 1.0 for b in bases]
        )
        length = norm(raw)
        if length < 1e-12:
            raw = np.zeros(n)
            raw[k % n] = 1.0
            length = 1.0
        x = raw / length
        val, gvec = evaluate(x)
        step = 0.25
        coarse = max(tol, 1e-7)
        for _ in range(10_000):
            tangent = gvec - (gvec @ x) * x
            if norm(tangent) <= coarse:
                break
            y = x + step * tangent
            y /= norm(y)
            fy, gy = evaluate(y)
            if fy > val:
                x, val, gvec = y, fy, gy
                step = min(step * 1.5, 1.0)
            else:
                step *= 0.5
                if step < 1e-17:
                    break
        x, val, gvec = polish(x, val, gvec)
        converged = bool(norm(gvec - (gvec @ x) * x) <= tol)
        if best_any is None or val > best_any[0]:
            best_any = (val, x)
        if converged and (best_conv is None or val > best_conv[0]):
            best_conv = (val, x)
    if best_conv is not None:
        return tuple(float(c) for c in best_conv[1])
    warnings.warn(
        "sphere ascent did not converge from any start; returning best iterate",
        RuntimeWarning,
        stacklevel=2,
    )
    assert best_any is not None
    return tuple(float(c) for c in best_any[1])


def _householder_to_last(v: np.ndarray) -> np.ndarray:
    """Orthogonal matrix sending the last basis vector to v."""
    n = len(v)
    e = np.zeros(n)
    e[-1] = 1.0
    w = e - v
    norm_sq = float(w @ w)
    if norm_sq < 1e-24:
        return np.eye(n)
    return np.eye(n) - 2.0 * np.outer(w, w) / norm_sq


def extract_normal_form(
    f: Polynomial,
    rotation: RationalMatrix | None = None,
    *,
    tol: float = 1e-9,
    seed: int = 0,
) -> NormalForm:
    """Rotate f into normal form, exactly or numerically.

    One pipeline serves both routes and differs only in how the x_n^2
    coefficient phi is diagonalized.  With `rotation` given, the extraction
    is exact: phi's eigenspaces are found by rational row reduction, and
    ValueError means the rotation does not expose the normal form (wrong
    target, or no rational orthonormal eigenbasis).  Without a rotation, a
    numeric maximizer (`sphere_maximize`, with `tol` and `seed`) and
    a float eigensolver supply rotations that are rationalized entry by
    entry, so the result carries arithmetic="float" and an extraction
    residual, and deviations above REJECT_TOL are NotEikonalEvidence.  On
    either route NotEikonalEvidence means f cannot be eikonal at all.
    """
    _require_quartic(f)
    if rotation is None:
        point = np.array(sphere_maximize(f, tol=tol, seed=seed))
        rotation = RationalMatrix.from_float(_householder_to_last(point))
        return _extract(substitute_linear(f, rotation), rotation, REJECT_TOL)
    _require_orthogonal(rotation, f.dimension)
    return _extract(substitute_linear(f, rotation), rotation, 0)


def _require_quartic(f: Polynomial) -> None:
    if f.is_zero or not f.is_homogeneous(4):
        raise ValueError("f must be a nonzero homogeneous quartic")


def _rotation_problem(rotation: RationalMatrix, n: int) -> str | None:
    """Why `rotation` is not an exactly orthogonal n x n matrix, or None."""
    if not rotation.is_square or rotation.n_rows != n:
        return f"rotation must be {n} x {n}"
    if not rotation.is_orthogonal():
        return "rotation must be exactly orthogonal"
    return None


def _require_orthogonal(rotation: RationalMatrix, n: int) -> None:
    """ValueError unless `rotation` is an exactly orthogonal n x n matrix."""
    problem = _rotation_problem(rotation, n)
    if problem is not None:
        raise ValueError(problem)


def rotate_if_eikonal(
    f: Polynomial, rotation: RationalMatrix | None
) -> Polynomial | None:
    """f(rotation x) when `rotation` is an exactly orthogonal n x n matrix and
    f(rotation x) is exactly eikonal (as a quartic); otherwise None, and an
    invalid rotation raises nothing here.

    For an orthogonal R the eikonal residual of f(R x) is that of f at R x,
    so this zero test decides whether f is exactly eikonal.  It is cheap
    because f(R x) is sparse when R exposes a normal form, and the caller
    passes it on to `exact_normal_form`.  A nonzero residual is left to be
    measured on f, and an invalid rotation to be refused after that.
    """
    if rotation is None or _rotation_problem(rotation, f.dimension) is not None:
        return None
    rotated = substitute_linear(f, rotation)
    return rotated if check_eikonal(rotated, 4).is_zero else None


def exact_normal_form(
    f: Polynomial, rotation: RationalMatrix | None, rotated: Polynomial | None
) -> tuple[NormalForm, bool] | None:
    """The normal form of f, or of -f (flag True), on an exact route: the
    given `rotation`, on f only, read off `rotated` = f(rotation x) as
    `rotate_if_eikonal` returned it; without a rotation (and `rotated`
    None), the identity on f, then on -f, each ValueError moving on (None
    when both fail).  The identity route is meant for an exactly eikonal f,
    on which every route is exact.
    """
    if rotation is not None:
        _require_quartic(f)
        return _extract(rotated, rotation, 0), False
    identity = RationalMatrix.identity(f.dimension)
    for negated in (False, True):
        try:
            return extract_normal_form(-f if negated else f, identity), negated
        except ValueError:
            pass
    return None


def obtain_normal_form(
    f: Polynomial, rotation: RationalMatrix | None,
    *, allow_float: bool, tol: float, seed: int,
) -> tuple[NormalForm, bool]:
    """The normal form of f, or of -f (flag True), by the first route that
    applies: for an exactly eikonal f, `exact_normal_form` at the given
    `rotation` (the zero test made on f(rotation x), `rotate_if_eikonal`)
    or, without one, at the identity; then, unless `allow_float` is off
    (ValueError), the float route on f, then on -f.  An eikonal residual of
    f above REJECT_TOL raises NotEikonalEvidence before the float route,
    and an invalid rotation raises ValueError after that gate, as in
    `classify`.  -f is tried only for an f eikonal within `tol`: by Euler's
    identity such an f is +1 or -1 at each critical point on the sphere,
    and -f is 1 where f is -1 (at e_n, or the maximum of -|x|^4).  When
    every route fails, f's NotEikonalEvidence is raised.
    """
    rotated = rotate_if_eikonal(f, rotation)
    if rotated is not None:
        return exact_normal_form(f, rotation, rotated)
    deviation = check_eikonal(f, 4).value.max_abs_coefficient()
    if deviation > REJECT_TOL:
        raise NotEikonalEvidence(FAR_FROM_EIKONAL)
    if rotation is not None:
        _require_orthogonal(rotation, f.dimension)
    elif not deviation:
        found = exact_normal_form(f, None, None)
        if found is not None:
            return found
    if not allow_float:
        raise ValueError(EXACT_NEEDS_POSITION if rotation is None else EXACT_NEEDS_EIKONAL)
    try:
        return extract_normal_form(f, None, tol=tol, seed=seed), False
    except NotEikonalEvidence as evidence:
        if deviation > tol:
            raise
        try:
            return extract_normal_form(-f, None, tol=tol, seed=seed), True
        except NotEikonalEvidence:
            raise evidence from None
