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
eikonality itself.  Without a rotation, one closed-form great-circle step
(`sphere_maximize`) reaches a maximizer, a reflection sends e_n there,
Jacobi rotations (`matrices.symmetric_eigen`) diagonalize phi, both
rotations are rationalized entry by entry, and every deviation is
accumulated, exactly, into `extraction_residual`, judged against REJECT_TOL.

`obtain_normal_form`, behind `eikq normalform`, decides which rotation
and which sign (f or -f; congruence includes the sign) the normal form is
read from, exact routes (`exact_normal_form`) first.  Their sign is read
off g(e_n), the x_n^4 coefficient of g = f(R x) at a given rotation R or
of f at the identity: -f when it is -1, else f, and at the identity
nothing is read unless it is 1 or -1.  With a valid R, `rotate_if_eikonal`
makes the exact zero test on the sparse f(R x) instead of on f, and hands
the same f(R x) to the extraction; a nonzero residual is still measured
on f.  `classify` shares the zero test and the identity route; at a
rotation it decides by a square-root certificate on f(R x) instead, and
reads no normal form.  It builds f(R x) once (`rotate`) and runs the
certificate first; a certified f(R x) is eikonal and needs no zero test,
and any other is handed to the zero test as it is.  The float route,
`sphere_maximize` included, serves only `eikq normalform`: `classify`
decides the remaining inputs by a closed-form certificate instead, which
reads f at the same 0/1 points (`zero_one_derivatives`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analysis import check_eikonal
from .constructors import NormalFormData
from .matrices import RationalMatrix, _matrix, orthonormalize_rational, symmetric_eigen
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
NOT_ORTHOGONAL = "rotation must be exactly orthogonal"
EXACT_NEEDS_POSITION = (
    "--exact needs f in normal-form position or an explicit rotation; "
    "rerun without --exact to allow the float path"
)
# with a valid rotation, --exact fails only on an f that is not exactly eikonal
EXACT_NEEDS_EIKONAL = (
    "--exact needs an exactly eikonal f, but its eikonal residual is nonzero; "
    "rerun without --exact to allow the float path"
)

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
    eigvals, eigvecs = symmetric_eigen(big_phi)
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
    vectors = [[row[j] for j in plus + minus] for row in eigvecs]
    return RationalMatrix.from_float(vectors), len(plus), deviation


def _extract(g: Polynomial, rotation: RationalMatrix, tol: float) -> NormalForm:
    """Read the normal form of f off g = f(rotation x), up to `tol`.

    tol = 0 is the exact route: every structural fact must hold exactly,
    the eigenbasis of phi is found in rational arithmetic, and a rotation
    that misses a maximizer with value 1 raises ValueError.  With tol > 0
    the eigenbasis comes from Jacobi rotations (`symmetric_eigen`), the
    same on every host, everything dropped is accumulated into
    `extraction_residual`, and any deviation above tol is NotEikonalEvidence.
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
        w = _matrix(v.den, [[*row, 0] for row in v.rows] + [[0] * m + [v.den]])
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


def zero_one_derivatives(g: Polynomial, rank) -> tuple:
    """(terms, support, value, grad, hess): g's float terms, and g with its
    gradient and Hessian at the 0/1 point a = e_i or e_i + e_j that `rank`
    puts first, all in floats.

    `rank((support of a, g(a)))` is a sort key; the largest wins, the first in
    the order e_0, ..., e_{n-1}, e_0 + e_1, e_0 + e_2, ... on a tie.  At a
    0/1 point every derivative is a sum of integer multiples of
    coefficients, summed over g's sorted terms, so the result depends
    neither on the order of the terms nor on the host.  ValueError when a
    coefficient lies past the float range.
    """
    n = g.dimension
    try:
        terms = [(mono, float(c)) for mono, c in g.sorted_terms()]
    except OverflowError:
        raise ValueError("a coefficient lies past the float range (about 1.8e308), "
                         "and the float route reads coefficients as floats") from None
    # g(e_i + e_j) = g(e_i) + g(e_j) + the coefficients supported on {i, j}
    on_support: dict[tuple[int, ...], float] = {}
    for mono, c in terms:
        support = tuple(i for i, e in enumerate(mono) if e)
        if len(support) <= 2:
            on_support[support] = on_support.get(support, 0.0) + c
    single = [on_support.get((i,), 0.0) for i in range(n)]
    candidates = [((i,), single[i]) for i in range(n)] + [
        ((i, j), single[i] + single[j] + on_support.get((i, j), 0.0))
        for i in range(n) for j in range(i + 1, n)
    ]
    support, value = max(candidates, key=rank)
    inside = set(support)
    grad = [0.0] * n
    hess = [[0.0] * n for _ in range(n)]
    for mono, c in terms:
        outside = sum(e for i, e in enumerate(mono) if i not in inside)
        if outside > 2:
            continue
        used = [i for i, e in enumerate(mono) if e]
        for k in used:
            # a derivative of x^m is nonzero at a only when what is left of
            # x^m has no variable outside a's support
            out_k = outside - (k not in inside)
            if out_k == 0:
                grad[k] += c * mono[k]
            for l in used:
                power = mono[l] - (k == l)
                if power and out_k - (l not in inside) == 0:
                    hess[k][l] += c * (mono[k] * power)
    return terms, support, value, grad, hess


def sphere_maximize(f: Polynomial) -> tuple[float, ...]:
    """A point of the unit sphere where the eikonal quartic f is 1, in one step.

    On the sphere an eikonal quartic has |grad_S f|^2 = 16 (1 - f^2), so
    f = cos 4d, with d the distance to the set where f = 1 and |grad d| = 1
    (for h_d the angle to H or to H^perp; for an isoparametric f, Muenzner's
    parallel hypersurfaces).  So the path of steepest ascent from x is the
    great circle along T = grad f(x) - 4 f(x) x, and it reaches f = 1 after
    the angle theta / 4, where cos theta = f(x) and sin theta = |T| / 4.

    x is the e_i or (e_i + e_j) / sqrt 2 with the largest f, read by
    `zero_one_derivatives` and rescaled by f(a / sqrt m) = f(a) / m^2 and
    grad f(a / sqrt m) = grad f(a) / m^(3/2).  Only +, *, / and sqrt, which
    IEEE 754 rounds correctly, and correctly rounded sums (`math.fsum`) are
    used, so the point is the same bit for bit on every host.  x itself is
    returned when T = 0, or when x is a minimum (cos(theta/2) = 0, as for
    -|x|^4); the extraction then fails, and `obtain_normal_form` tries -f.
    For an f eikonal only within a tolerance, the point is a maximizer up to
    about that tolerance, which the extraction residual measures.
    """
    _require_quartic(f)
    _, support, value, grad, _ = zero_one_derivatives(
        f, lambda item: item[1] / len(item[0]) ** 2
    )
    m = len(support)
    root = math.sqrt(m)
    x = [1.0 / root if i in support else 0.0 for i in range(f.dimension)]
    fx = value / (m * m)
    t = [grad[i] / (m * root) - 4.0 * fx * x[i] for i in range(f.dimension)]
    length = math.sqrt(math.fsum(c * c for c in t))
    if length == 0.0:
        return tuple(x)
    sin, cos = length / 4.0, fx
    scale = math.sqrt(sin * sin + cos * cos)
    sin, cos = sin / scale, cos / scale
    for _ in range(2):  # theta / 2, then theta / 4
        half = math.sqrt((1.0 + cos) / 2.0)
        if half == 0.0:
            return tuple(x)
        sin, cos = sin / (2.0 * half), half
    return tuple(cos * x[i] + sin * (t[i] / length) for i in range(f.dimension))


def _householder_to_last(v: tuple[float, ...]) -> list[list[float]]:
    """Orthogonal matrix sending the last basis vector to v or to -v: to the
    one that makes w = e_n -+ v have |w|^2 >= 2, so that the reflection is
    well conditioned near e_n.  f is even, so both are maximizers."""
    w = [c if v[-1] > 0 else -c for c in v]
    w[-1] += 1.0
    scale = 2.0 / math.fsum(c * c for c in w)
    return [[(i == j) - scale * a * b for j, b in enumerate(w)] for i, a in enumerate(w)]


def extract_normal_form(
    f: Polynomial, rotation: RationalMatrix | None = None
) -> NormalForm:
    """Rotate f into normal form, exactly or numerically.

    One pipeline serves both routes and differs only in how the x_n^2
    coefficient phi is diagonalized.  With `rotation` given, the extraction
    is exact: phi's eigenspaces are found by rational row reduction, and
    ValueError means the rotation does not expose the normal form (wrong
    target, or no rational orthonormal eigenbasis).  Without a rotation,
    the closed-form sphere step (`sphere_maximize`) and Jacobi rotations
    (`symmetric_eigen`) supply rotations that are rationalized entry by
    entry, so the result carries arithmetic="float" and an extraction
    residual, and deviations above REJECT_TOL are NotEikonalEvidence; a
    coefficient past the float range is a ValueError.  On either route
    NotEikonalEvidence means f cannot be eikonal at all.
    """
    _require_quartic(f)
    if rotation is None:
        rotation = RationalMatrix.from_float(_householder_to_last(sphere_maximize(f)))
        return _extract(substitute_linear(f, rotation), rotation, REJECT_TOL)
    _require_orthogonal(rotation, f.dimension)
    return _extract(substitute_linear(f, rotation), rotation, 0)


def _require_quartic(f: Polynomial) -> None:
    if f.is_zero or not f.is_homogeneous(4):
        raise ValueError("f must be a nonzero homogeneous quartic")


def _require_orthogonal(rotation: RationalMatrix, n: int) -> None:
    """ValueError unless `rotation` is an exactly orthogonal n x n matrix."""
    if not rotation.is_square or rotation.n_rows != n:
        raise ValueError(f"rotation must be {n} x {n}")
    if not rotation.is_orthogonal():
        raise ValueError(NOT_ORTHOGONAL)


def rotate(f: Polynomial, rotation: RationalMatrix | None) -> Polynomial | None:
    """f(rotation x) when `rotation` is an n x n matrix; otherwise None."""
    if rotation is None or not rotation.is_square or rotation.n_rows != f.dimension:
        return None
    return substitute_linear(f, rotation)


def rotate_if_eikonal(rotated: Polynomial | None) -> Polynomial | None:
    """`rotated` = f(rotation x), as `rotate` built it, when f(rotation x) is
    exactly eikonal (as a quartic); otherwise None.  `rotated` is None when
    `rotation` is None or of the wrong size.

    For an orthogonal R the eikonal residual of f(R x) is that of f at R x,
    so this zero test decides whether f is exactly eikonal.  It is cheap
    because f(R x) is sparse when R exposes a normal form, and the caller
    passes it on to `exact_normal_form` or to `classify`'s errors.  A
    nonzero residual is left to be measured on f.  R's orthogonality is not
    checked here: the caller checks R once, when it is about to use
    f(rotation x), and carries a failed check past the gate on f, where
    the rotation is refused; when it never uses f(rotation x), it checks R
    once, after that gate.
    """
    if rotated is None or not check_eikonal(rotated, 4).is_zero:
        return None
    return rotated


def exact_normal_form(
    g: Polynomial, rotation: RationalMatrix | None = None, *, allow_float: bool = False
) -> tuple[NormalForm, bool] | None:
    """The normal form of g, or of -g (flag True), read exactly: at the given
    `rotation` off g = f(rotation x) as `rotate_if_eikonal` returned it, or,
    without one, off f = g itself at the identity.  The normal form needs
    g(e_n) = 1, so the sign is read first: -g when g(e_n) = -1, else g.  At a
    rotation the one extraction raises its ValueError.  At the identity it
    is made only when g(e_n) = +-1 (else None), and its ValueError (no
    rational orthonormal eigenbasis) is raised unless `allow_float` is on,
    which returns None for the float route to follow.  The identity route
    is meant for an exactly eikonal f.
    """
    _require_quartic(g)
    lead = g.coefficient((0,) * (g.dimension - 1) + (4,))
    negated = lead == -1
    if rotation is not None:
        return _extract(-g if negated else g, rotation, 0), negated
    if lead not in (1, -1):
        return None
    identity = RationalMatrix.identity(g.dimension)
    try:
        return extract_normal_form(-g if negated else g, identity), negated
    except ValueError:
        if not allow_float:
            raise
        return None


def obtain_normal_form(
    f: Polynomial, rotation: RationalMatrix | None,
    *, allow_float: bool, tol: float,
) -> tuple[NormalForm, bool]:
    """The normal form of f, or of -f (flag True), by the first route that
    applies: for an exactly eikonal f, `exact_normal_form` (the sign read
    off g(e_n)) at the given `rotation` (the zero test made on f(rotation x),
    `rotate_if_eikonal`) or, without one, at the identity, whose failed
    extraction raises its own ValueError when `allow_float` is off; then,
    unless `allow_float` is off (ValueError), the float route on f, then on
    -f.  An eikonal residual of
    f above REJECT_TOL raises NotEikonalEvidence before the float route,
    and an invalid rotation raises ValueError after that gate, as in
    `classify`.  -f is tried only for an f eikonal within `tol`: by Euler's
    identity such an f is +1 or -1 at each critical point on the sphere,
    and -f is 1 where f is -1 (at e_n, or the maximum of -|x|^4).  When
    every route fails, f's NotEikonalEvidence is raised.
    """
    rotated = rotate_if_eikonal(rotate(f, rotation))
    refused = rotated is not None and not rotation.is_orthogonal()
    if rotated is not None and not refused:
        return exact_normal_form(rotated, rotation)
    deviation = check_eikonal(f, 4).max_coeff
    if deviation > REJECT_TOL:
        raise NotEikonalEvidence(FAR_FROM_EIKONAL)
    if refused:  # R failed its one check above
        raise ValueError(NOT_ORTHOGONAL)
    if rotation is not None:
        _require_orthogonal(rotation, f.dimension)
    elif not deviation:
        found = exact_normal_form(f, allow_float=allow_float)
        if found is not None:
            return found
    if not allow_float:
        raise ValueError(EXACT_NEEDS_POSITION if rotation is None else EXACT_NEEDS_EIKONAL)
    try:
        return extract_normal_form(f, None), False
    except NotEikonalEvidence as evidence:
        if deviation > tol:
            raise
        try:
            return extract_normal_form(-f, None), True
        except NotEikonalEvidence:
            raise evidence from None
