"""Classification of quartic eikonal polynomials.

Every quartic solution of |grad f|^2 = 16 |x|^6 is congruent (up to an
orthogonal change of variables and an overall sign) either to a primitive
form

    h_d = |x_H|^4 - 6 |x_H|^2 |x_{H^perp}|^2 + |x_{H^perp}|^4

determined by the dimension d of the distinguished subspace H, or to an
isoparametric quartic.  The congruence class of a primitive form is the
pair {d, n - d}, so reports carry the normalized invariant
dim_h = min(d, n - d).  An isoparametric quartic is by definition an
eikonal f with laplacian(f) = 8 (m2 - m1) |x|^2 (Muenzner's second
equation), labeled by its multiplicities m1, m2 >= 1, m1 + m2 = n/2 - 1.

`classify` decides the verdicts in this order:

    primitive, exact (at R)          with a rotation R of the right shape,
                                     first the square-root certificate on
                                     g = f(R x), if g(e_n) = +-1
                                     (`_root_certificate`): g = h_d or -h_d
                                     in an orthonormal frame exactly when
                                     (+-g + |x|^4)/2 = lam G^2 for a quadric
                                     G = x^T Gamma x with lam Gamma^2 = I,
                                     and then dim_h = (n - |tr Q|)/2 with
                                     Q = sqrt(lam) Gamma.  Such a g is
                                     exactly eikonal and not isoparametric,
                                     so once R is exactly orthogonal no
                                     gate and no Muenzner run; every other
                                     input goes on below
    not_eikonal, inconclusive_float  f's eikonal residual against
                                     REJECT_TOL and tol; with a valid
                                     rotation R the exact zero test runs
                                     on the same g, and a nonzero
                                     residual is still measured on f
    isoparametric                    Muenzner's equation on f itself,
                                     within tol (n even, n >= 6)
    primitive, exact (no R)          the exact normal form of -f if
                                     f(e_n) = -1, else of f, if
                                     f(e_n) = +-1 (`exact_normal_form`):
                                     a zero pencil, or for q = 1 an
                                     involution (`_judge`)
    primitive, inconclusive_float    for any other f, the float certificate:
                                     f = h_d or -h_d exactly when f + |x|^4
                                     or -f + |x|^4 is 8 (x^T S x)^2 with
                                     S^2 = I/4, and then d = n/2 + tr S

An isoparametric report describes f: (m1, m2), `laplacian_constant`, and
the numbers of f's own normal form, q = m1 + 1, nu = m2, p = n - 1 - q and
mu = p - 2 nu; a `rotation` is validated but not needed.  An exact
primitive report carries the p and q of the normal form at e_n, which may
be that of -f: the certificate reads them off Gamma, and the identity
route off the normal form it extracts.  A float one reads no normal form,
and its p and q are null.  On the exact route every fact is a rational
identity, and an exactly eikonal f that is neither primitive nor
isoparametric raises RuntimeError (exit 5 in the CLI): it contradicts the
structure theory.  At R that is an exactly eikonal g that is not
isoparametric and has no certificate; if g(e_n) is not +-1, it is the
ValueError that R must send e_n to a point with f = 1.  At the identity a
normal form that has no rational orthonormal eigenbasis falls through to
the float certificate, or, with `allow_float` off, raises that ValueError.  On the float route a residual
above `tol` but below the rejection threshold comes back as verdict
"inconclusive_float", and a larger one as "not_eikonal".  An f eikonal
within `tol` that neither sign of the certificate accepts is
"inconclusive_float" too.  A `rotation` given with an f that is not exactly
eikonal is validated, after the eikonal gate, but not used.
`sphere_maximize` and the float normal form serve only `eikq normalform`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional

from .analysis import check_eikonal, check_munzner_second, float_image, scientific
from .matrices import RationalMatrix, _int_matmul, symmetric_eigen
from .normalform import (
    EXACT_NEEDS_EIKONAL,
    EXACT_NEEDS_POSITION,
    FAR_FROM_EIKONAL,
    NOT_ORTHOGONAL,
    REJECT_TOL,
    NormalForm,
    _require_orthogonal,
    _require_quartic,
    exact_normal_form,
    rotate,
    rotate_if_eikonal,
    zero_one_derivatives,
)
from .pencils import quadratic_form_matrix
from .polyring import (
    Polynomial,
    laplacian,
    packed_laplacian,
    radial_power,
    radial_square_root,
    rational,
    substitute_linear,
)

VERDICT_PRIMITIVE = "primitive"
VERDICT_ISOPARAMETRIC = "isoparametric"
VERDICT_NOT_EIKONAL = "not_eikonal"
VERDICT_INCONCLUSIVE = "inconclusive_float"

SCHEMA_VERSION = "eikq-report-1"


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of `classify`, JSON-ready and order-stable."""

    verdict: str
    n: int
    arithmetic: str
    residual: float
    p: Optional[int] = None
    q: Optional[int] = None
    dim_h: Optional[int] = None
    nu: Optional[int] = None
    mu: Optional[int] = None
    m1: Optional[int] = None
    m2: Optional[int] = None
    laplacian_constant: Optional[str] = None
    detail: str = ""
    # a residual given as an exact rational is kept here, for the text report;
    # `residual` holds its float image
    exact_residual: Optional[Fraction] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.residual, Fraction):
            object.__setattr__(self, "exact_residual", self.residual)
            object.__setattr__(self, "residual", float_image(self.residual))

    def to_json_dict(self) -> dict:
        """The fields in declaration order, after the schema version."""
        fields = {"schema_version": SCHEMA_VERSION, **asdict(self)}
        del fields["exact_residual"]
        return fields

    def summary_lines(self) -> list[str]:
        lines = [f"verdict: {self.verdict}"]
        residual = scientific(self.exact_residual or self.residual)
        lines.append(f"n = {self.n}, arithmetic = {self.arithmetic}, residual = {residual}")
        if self.p is not None:
            lines.append(f"normal form: p = {self.p}, q = {self.q}")
        if self.verdict == VERDICT_PRIMITIVE and self.dim_h is not None:
            lines.append(f"primitive class: dim H = {self.dim_h} (as min(d, n - d))")
        if self.verdict == VERDICT_ISOPARAMETRIC:
            lines.append(
                f"isoparametric multiplicities: (m1, m2) = ({self.m1}, {self.m2}), nu = {self.nu}, mu = {self.mu}"
            )
            lines.append(f"laplacian constant: {self.laplacian_constant}")
        if self.detail:
            lines.append(self.detail)
        return lines


def congruent_primitive(n: int, d1: int, d2: int) -> bool:
    """Whether the primitive forms with dim H = d1, d2 are congruent in R^n.

    Congruence allows an orthogonal change of variables and a sign, which
    identifies d with n - d and nothing else.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    for d in (d1, d2):
        if not isinstance(d, int) or not 0 <= d <= n:
            raise ValueError("dimensions must lie between 0 and n")
    return d1 == d2 or d1 + d2 == n


def laplacian_signature(f: Polynomial, rotation: RationalMatrix | None = None):
    """Sorted (eigenvalue, multiplicity) pairs of the Laplacian's quadratic form.

    The Laplacian of a quartic is a quadratic form; its spectrum (with
    multiplicity) is invariant under the orthogonal group, which makes the
    signature a congruence test.  Exact eigenvalues are reported when the
    form is diagonal; otherwise the float eigenvalues of
    `matrices.symmetric_eigen` (cyclic Jacobi, the same bits on every host)
    are grouped to 1e-6.  A matrix other than an n x n rotation is refused.
    """
    _require_quartic(f)
    if rotation is not None:
        _require_orthogonal(rotation, f.dimension)
        f = substitute_linear(f, rotation)
    n = f.dimension
    lap = laplacian(f)
    if lap.is_zero:
        return ((rational(0), n),)
    matrix = quadratic_form_matrix(lap, range(n))
    off_diagonal = any(
        matrix[i, j] != 0 for i in range(n) for j in range(n) if i != j
    )
    if off_diagonal:
        values, slack = symmetric_eigen(matrix)[0], 1e-6
    else:
        values, slack = [matrix[i, i] for i in range(n)], 0
    grouped: list[list] = []
    for v in sorted(values):
        if grouped and abs(grouped[-1][0] - v) <= slack:
            grouped[-1][1] += 1
        else:
            grouped.append([v, 1])
    return tuple((v, m) for v, m in grouped)


def classify(
    f: Polynomial,
    rotation: RationalMatrix | None = None,
    *,
    allow_float: bool = True,
    tol: float = 1e-9,
) -> ClassificationReport:
    """Decide primitive vs isoparametric for a quartic, with eikonal checks.

    With a `rotation` R of the right shape, g = f(R x) is built once and
    the square-root certificate on g (`_root_certificate`) runs first: it
    proves g = +-h_d, which is exactly eikonal and never isoparametric, so
    once R is found exactly orthogonal the exact primitive report needs no
    eikonal gate and no Muenzner.  A g that is not certified, or an R that
    is not orthogonal, goes on to the gate.

    The eikonal residual of f gates everything else: exactly zero keeps
    every decision in rational arithmetic; below `tol` the float route is
    taken (unless `allow_float` is off); between `tol` and `REJECT_TOL` the
    verdict is "inconclusive_float"; above it "not_eikonal".  With an
    exactly orthogonal R the zero test is made on the same g instead
    (`normalform.rotate_if_eikonal`); a nonzero residual is still measured
    on f, and an invalid rotation is refused (ValueError) only after that
    gate.  R is checked once: when g is certified or exactly eikonal, and
    a failed check is carried past the gate; otherwise after the gate.
    Then Muenzner's equation on f decides "isoparametric".  An exactly eikonal f is next decided at R by
    the certificate already made, whose failure is an error (ValueError when
    g(e_n) is not +-1, else RuntimeError), and without a rotation through its
    exact normal form at the identity, which `_judge` decides on.  Every f
    that is still undecided gets the float primitive certificate
    (`_certify`), unless `allow_float` is off (ValueError).
    """
    _require_quartic(f)
    n = f.dimension
    rotated = rotate(f, rotation)
    certified = None if rotated is None else _root_certificate(rotated)
    if certified is None:
        rotated = rotate_if_eikonal(rotated)
    # R's one check, made only when g is certified or exactly eikonal
    refused = rotated is not None and not rotation.is_orthogonal()
    if refused:
        rotated = None  # the gate on f decides, and R is refused after it
    elif certified is not None:
        return certified
    deviation = Fraction(0)
    if rotated is None:
        deviation = check_eikonal(f, 4).max_coeff
        if deviation > REJECT_TOL:
            return ClassificationReport(
                VERDICT_NOT_EIKONAL, n, "exact", deviation, detail=FAR_FROM_EIKONAL
            )
        if deviation > tol:
            return ClassificationReport(
                VERDICT_INCONCLUSIVE, n, "float", deviation,
                detail="the eikonal residual sits between tol and the rejection threshold",
            )
        if refused:  # R failed its one check above
            raise ValueError(NOT_ORTHOGONAL)
        if rotation is not None:
            _require_orthogonal(rotation, n)
    exact = not deviation
    # an isoparametric quartic has m1, m2 >= 1, so n = 2 (m1 + m2 + 1) >= 6
    if n % 2 == 0 and n >= 6 and (allow_float or exact):
        report = _isoparametric(f, deviation, 0 if exact else tol)
        if report is not None:
            return report
    if rotated is not None:
        raise _uncertified(rotated)
    if exact:
        found = exact_normal_form(f, allow_float=allow_float)
        if found is not None:
            return _judge(found[0])
    if not allow_float:
        raise ValueError(EXACT_NEEDS_POSITION if rotation is None else EXACT_NEEDS_EIKONAL)
    return _certify(f, deviation, tol)


def _isoparametric(
    f: Polynomial, deviation: Fraction, tol: float
) -> Optional[ClassificationReport]:
    """The report when laplacian(f) is within `tol` of 8 (m2 - m1) |x|^2 with
    m1, m2 >= 1, which makes the eikonal f isoparametric; else None.

    tol = 0 gives an exact verdict; on the float route the Laplacian's
    deviation is folded into `deviation`, f's exact eikonal one.
    """
    n = f.dimension
    try:
        pair = check_munzner_second(f, 4, n // 2 - 1, tol=tol)
    except ValueError:  # a radial Laplacian far from any pair, as for |x|^4
        return None
    # m1 = 0 or m2 = 0 is h_{n/2} or its negative, which is primitive
    if pair is None or min(pair) < 1:
        return None
    m1, m2 = pair
    constant = rational(8 * (m2 - m1))
    if tol:  # on the exact route the Laplacian's deviation is 0
        remainder = packed_laplacian(f, 4).minus_radial(constant, 1)
        deviation = max(deviation, remainder.max_abs_coefficient())
    p = n - 2 - m1  # f's own normal form: q = m1 + 1, nu = m2
    return ClassificationReport(
        VERDICT_ISOPARAMETRIC, n, "float" if tol else "exact", deviation,
        p=p, q=m1 + 1, nu=m2, mu=p - 2 * m2, m1=m1, m2=m2,
        laplacian_constant=str(constant),
    )


def _judge(nf: NormalForm) -> ClassificationReport:
    """Read a primitive verdict off the pencil of nf, the exact normal form of
    f or of -f.

    f is exactly eikonal and not isoparametric, so its pencil must be zero
    (q = 0 and p = 0 included) or, for q = 1, an involution; anything else
    contradicts the structure theory (RuntimeError).
    """
    n, p, q = nf.ambient_dimension, nf.p, nf.q
    if all(a.is_zero() for a in nf.pencil):
        dim_raw = p + 1
    elif q == 1:
        a = nf.pencil[0]
        if a @ a != RationalMatrix.identity(p):
            raise RuntimeError(
                "eikonal quartic with a single pencil matrix that is neither zero "
                "nor an involution; this contradicts the structure theory"
            )
        # the eigenvalues of an involution are +-1, so p + tr A is even
        dim_raw = (p + int(a.trace())) // 2 + 1
    else:
        raise RuntimeError(
            "eikonal quartic with a nonzero pencil of length q >= 2 that is not "
            "isoparametric; this contradicts the structure theory"
        )
    return ClassificationReport(
        VERDICT_PRIMITIVE, n, "exact", 0.0, p=p, q=q, dim_h=min(dim_raw, n - dim_raw)
    )


def _root_certificate(g: Polynomial) -> Optional[ClassificationReport]:
    """The exact primitive verdict on g = f(R x) for a given rotation R, when
    g = +-h_d in an orthonormal frame; else None.

    T_4 = 2 T_2^2 - 1 gives h_d = 2 F^2 - |x|^4 with F = x^T Q x and
    Q = P_H - P_{H^perp}, Q^2 = I.  So g = +-h_d in some orthonormal frame
    exactly when (+-g + |x|^4)/2 = lam G^2 for a quadric G = x^T Gamma x and
    a rational lam with lam Gamma^2 = I; then Q = sqrt(lam) Gamma, the
    integer t = |tr Q| has t^2 = lam (tr Gamma)^2, and dim_h = (n - t)/2.
    G is the packed square root `radial_square_root`, and every test is a
    rational identity, also when H is irrational.  A certified g is exactly
    eikonal, so `classify` runs this before its eikonal gate.

    p and q are those of the normal form at e = e_n, read off F = g when
    g(e) = 1 and F = -g when g(e) = -1; the certificate is tried for F
    first, which fixes p and q at n = 2, where both signs certify.  If
    F = h_d, then e lies in H or in H^perp, which has dimension
    k = (n + (e^T Q e) tr Q)/2 = (n + lam Gamma_nn tr Gamma)/2, so p = k - 1
    and q = n - k; if F = -h_d, (p, q) = (n - 2, 1).  Only g(e) = +-1 is
    tried.
    """
    n = g.dimension
    lead = g.coefficient((0,) * (n - 1) + (4,))
    signs = (int(lead), -int(lead)) if lead in (1, -1) else ()
    for sign in signs:  # F, then -F
        found = radial_square_root(g, sign)
        if found is None:
            continue
        # sign g + |x|^4 = c G^2 with G integer, so lam = c / 2; in integers,
        # with M = 2 Gamma, lam Gamma^2 = I reads c M^2 = 8 I
        c, m = found[0], [[0] * n for _ in range(n)]
        for mono, coeff in found[1].terms.items():
            i, j = (v for v, e in enumerate(mono) for _ in range(e))
            m[i][j] = m[j][i] = int(coeff) * (1 + (i == j))
        square = _int_matmul(m, m)
        if any(c * square[i][j] != 8 * (i == j) for i in range(n) for j in range(n)):
            continue
        trace = sum(m[i][i] for i in range(n))  # 2 tr Gamma
        t_squared = c * trace * trace / 8  # lam (tr Gamma)^2, with lam > 0
        t = math.isqrt(t_squared.numerator)
        if t * t != t_squared:
            continue
        if sign == lead:
            # e^T Q e = +-1, since F(e) = 1, so k is an integer
            k = int(n + c * m[n - 1][n - 1] * trace / 8) // 2
            p, q = k - 1, n - k
        else:
            p, q = n - 2, 1
        return ClassificationReport(
            VERDICT_PRIMITIVE, n, "exact", 0.0, p=p, q=q, dim_h=(n - t) // 2
        )
    return None


def _uncertified(g: Polynomial) -> Exception:
    """The error for an exactly eikonal g = f(R x), not isoparametric, that
    `_root_certificate` does not certify: ValueError when g(e_n) is neither
    1 nor -1, and otherwise RuntimeError, since the structure theory rules
    that out."""
    if g.coefficient((0,) * (g.dimension - 1) + (4,)) not in (1, -1):
        return ValueError("rotation must send the last basis vector to a point with f = 1")
    return RuntimeError(
        "eikonal quartic that is not isoparametric, but neither (f + |x|^4)/2 nor "
        "(-f + |x|^4)/2 is lam G^2 with lam Gamma^2 = I; this contradicts the structure theory"
    )


def _certify(f: Polynomial, deviation: Fraction, tol: float) -> ClassificationReport:
    """The float primitive verdict on f, eikonal within `tol`.

    f = h_d, or -h_d, exactly when g = f + |x|^4, or -f + |x|^4, is
    8 (x^T S x)^2 with S^2 = I/4 (T_4 = 2 T_2^2 - 1), and then
    d = n/2 + tr S.  `_square_certificate` reads S off g; the sign whose
    deviation is within `tol` gives the verdict, with p and q left null
    (no normal form is read), and the residual the larger of f's exact
    eikonal deviation and the certificate's float one.  When neither
    sign certifies, the verdict is "inconclusive_float" with the smaller
    certificate deviation.
    """
    n = f.dimension
    radial = radial_power(n, 2)
    misses = []
    for g in (radial + f, radial - f):
        miss, trace = _square_certificate(g)
        if miss <= tol:
            d = round(n / 2 + trace)
            return ClassificationReport(
                VERDICT_PRIMITIVE, n, "float", max(deviation, miss),
                dim_h=min(d, n - d),
            )
        misses.append(miss)
    return ClassificationReport(
        VERDICT_INCONCLUSIVE, n, "float", min(misses),
        detail="neither f nor -f has a primitive certificate within tol",
    )


def _square_certificate(g: Polynomial) -> tuple[float, float]:
    """How far the quartic g is from 8 s^2, s = x^T S x with S^2 = I/4; and tr S.

    If g = 8 s^2, then at any a with g(a) > 0,
    T = hess g(a) - grad g(a) grad g(a)^T / (2 g(a)) = 32 s(a) S with
    s(a) = +-sqrt(g(a) / 8), and the sign of S does not change 8 s^2.  a is
    the e_i or e_i + e_j with the largest |g(a)|, where every derivative
    sums coefficients (`normalform.zero_one_derivatives`).  The deviation
    is the larger of max |S^2 - I/4| and max |coeff(g - 8 s^2)|, with S = 0
    when g(a) <= 0.  Plain floats, summed over g's sorted terms, so the
    result depends neither on the order of the terms nor on the host's
    BLAS.
    """
    n = g.dimension
    terms, _, value, grad, hess = zero_one_derivatives(g, lambda item: abs(item[1]))
    s = [[0.0] * n for _ in range(n)]
    if value > 0:
        scale = 32 * math.sqrt(value / 8)
        for k in range(n):
            for l in range(n):
                s[k][l] = (hess[k][l] - grad[k] * grad[l] / (2 * value)) / scale
    square = max(
        abs(sum(s[i][m] * s[m][j] for m in range(n)) - (0.25 if i == j else 0.0))
        for i in range(n) for j in range(n)
    )
    # 8 s^2 from the quadratic monomials x_i x_j (i <= j) of s
    quadratic = []
    for i in range(n):
        for j in range(i, n):
            exponents = [0] * n
            exponents[i] += 1
            exponents[j] += 1
            quadratic.append((exponents, s[i][j] if i == j else 2 * s[i][j]))
    model: dict[tuple[int, ...], float] = {}
    for u, (eu, cu) in enumerate(quadratic):
        for v in range(u, len(quadratic)):
            ev, cv = quadratic[v]
            mono = tuple(a + b for a, b in zip(eu, ev))
            weight = 8.0 if v == u else 16.0
            model[mono] = model.get(mono, 0.0) + weight * cu * cv
    coefficients = dict(terms)
    miss = max(
        (abs(coefficients.get(mono, 0.0) - model.get(mono, 0.0))
         for mono in coefficients.keys() | model.keys()),
        default=0.0,
    )
    return max(square, miss), sum(s[i][i] for i in range(n))
