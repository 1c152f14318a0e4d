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

    not_eikonal, inconclusive_float  f's eikonal residual against
                                     REJECT_TOL and tol
    isoparametric                    Muenzner's equation on f itself,
                                     within tol (n even, n >= 6)
    primitive                        the normal form of f or of -f
                                     (`normalform.obtain_normal_form`, as
                                     in `eikq normalform`): a zero pencil,
                                     or for q = 1 an involution

An isoparametric report describes f: (m1, m2), `laplacian_constant`, and
the numbers of f's own normal form, q = m1 + 1, nu = m2, p = n - 1 - q and
mu = p - 2 nu; a `rotation` is validated but not needed.  A primitive
report carries the p and q of the normal form that was read, which may be
that of -f.  On the exact route every fact is a rational identity, and an
exactly eikonal f that is neither primitive nor isoparametric raises
RuntimeError (exit 5 in the CLI): it contradicts the structure theory.  On
the float route a residual above `tol` but below the rejection threshold
comes back as verdict "inconclusive_float", and a larger one as
"not_eikonal".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .analysis import check_eikonal, check_munzner_second
from .matrices import RationalMatrix
from .normalform import (
    FAR_FROM_EIKONAL,
    REJECT_TOL,
    NormalForm,
    NotEikonalEvidence,
    _require_orthogonal,
    obtain_normal_form,
)
from .pencils import quadratic_form_matrix
from .polyring import Polynomial, laplacian, radial_power, rational, substitute_linear

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

    def to_json_dict(self) -> dict:
        """The fields in declaration order, after the schema version."""
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}

    def summary_lines(self) -> list[str]:
        lines = [f"verdict: {self.verdict}"]
        lines.append(f"n = {self.n}, arithmetic = {self.arithmetic}, residual = {self.residual:.3e}")
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
    form is diagonal; otherwise floating-point eigenvalues are grouped to
    1e-6.
    """
    if f.is_zero or not f.is_homogeneous(4):
        raise ValueError("f must be a nonzero homogeneous quartic")
    g = substitute_linear(f, rotation) if rotation is not None else f
    n = g.dimension
    lap = laplacian(g)
    if lap.is_zero:
        return ((rational(0), n),)
    matrix = quadratic_form_matrix(lap, range(n))
    off_diagonal = any(
        matrix[i, j] != 0 for i in range(n) for j in range(n) if i != j
    )
    if off_diagonal:
        eigs = np.linalg.eigvalsh(np.array(matrix.to_float()))
        values, slack = [float(e) for e in eigs], 1e-6
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
    seed: int = 0,
) -> ClassificationReport:
    """Decide primitive vs isoparametric for a quartic, with eikonal checks.

    The eikonal residual of f gates everything: exactly zero keeps every
    decision in rational arithmetic; below `tol` the float route is taken
    (unless `allow_float` is off); between `tol` and `REJECT_TOL` the
    verdict is "inconclusive_float"; above it "not_eikonal".  Then
    Muenzner's equation on f decides "isoparametric", and `_judge` reads
    any other f through its normal form, where a `rotation` (exact,
    orthogonal) keeps even rotated inputs on the exact route.
    """
    if f.is_zero or not f.is_homogeneous(4):
        raise ValueError("f must be a nonzero homogeneous quartic")
    n = f.dimension
    eik = check_eikonal(f, 4)
    deviation, mag = eik.value.max_abs_coefficient(), eik.magnitude
    if deviation > REJECT_TOL:
        return ClassificationReport(
            VERDICT_NOT_EIKONAL, n, "exact", mag, detail=FAR_FROM_EIKONAL
        )
    if deviation > tol:
        return ClassificationReport(
            VERDICT_INCONCLUSIVE, n, "float", mag,
            detail="the eikonal residual sits between tol and the rejection threshold",
        )
    # an isoparametric quartic has m1, m2 >= 1, so n = 2 (m1 + m2 + 1) >= 6
    if n % 2 == 0 and n >= 6 and (allow_float or eik.is_zero):
        report = _isoparametric(f, rotation, deviation, 0 if eik.is_zero else tol)
        if report is not None:
            return report
    try:
        nf, _ = obtain_normal_form(f, rotation, eik, allow_float=allow_float, tol=tol, seed=seed)
    except NotEikonalEvidence as evidence:
        return ClassificationReport(
            VERDICT_NOT_EIKONAL, n, "exact" if eik.is_zero else "float",
            max(mag, REJECT_TOL), detail=str(evidence),
        )
    exact = eik.is_zero and nf.arithmetic == "exact"
    return _judge(nf, max(deviation, nf.extraction_residual), 0.0 if exact else tol, exact)


def _isoparametric(
    f: Polynomial, rotation: RationalMatrix | None, deviation, tol: float
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
    if rotation is not None:
        _require_orthogonal(rotation, n)
    m1, m2 = pair
    constant = rational(8 * (m2 - m1))
    if tol:  # on the exact route the Laplacian's deviation is 0
        deviation = max(deviation, (laplacian(f) - constant * radial_power(n, 1)).max_abs_coefficient())
    p = n - 2 - m1  # f's own normal form: q = m1 + 1, nu = m2
    return ClassificationReport(
        VERDICT_ISOPARAMETRIC, n, "float" if tol else "exact", float(deviation),
        p=p, q=m1 + 1, nu=m2, mu=p - 2 * m2, m1=m1, m2=m2,
        laplacian_constant=str(constant),
    )


def _judge(nf: NormalForm, residual: Fraction, tol: float, exact: bool) -> ClassificationReport:
    """Read a primitive verdict off the pencil of nf, the normal form of f or of -f.

    f is not isoparametric, so its pencil must be zero (q = 0 and p = 0
    included) or, for q = 1, an involution.  Every fact is an exact
    deviation compared with `tol`.  The exact route passes tol = 0, and a
    failed fact contradicts the structure theory (RuntimeError); on the
    float route it makes the verdict "inconclusive_float".  The report
    holds the float image of the exact deviations folded into `residual`.
    """
    n, p, q = nf.ambient_dimension, nf.p, nf.q

    def fail(detail: str, contradiction: str = "") -> ClassificationReport:
        if exact:
            raise RuntimeError(
                f"{contradiction or detail}; this contradicts the structure theory"
            )
        return ClassificationReport(
            VERDICT_INCONCLUSIVE, n, "float", float(max(residual, tol)), p=p, q=q,
            detail=detail,
        )

    def primitive(dim_raw: int, deviation: Fraction) -> ClassificationReport:
        return ClassificationReport(
            VERDICT_PRIMITIVE, n, "exact" if exact else "float",
            float(max(residual, deviation)),
            p=p, q=q, dim_h=min(dim_raw, n - dim_raw),
        )

    if residual > tol:
        return fail("extraction residual exceeds tol")
    # exact rationals, so that with tol = 0 only a zero pencil passes
    pencil_max = max((a.max_abs() for a in nf.pencil), default=rational(0))
    if pencil_max <= tol:
        return primitive(p + 1, pencil_max)
    if q == 1:
        a = nf.pencil[0]
        square_dev = (a @ a - RationalMatrix.identity(p)).max_abs()
        trace = a.trace()
        trace_int = round(trace)
        if (square_dev > tol or abs(trace - trace_int) > tol * max(p, 1)
                or (p + trace_int) % 2):
            return fail(
                "single pencil matrix is not numerically an involution",
                "eikonal quartic with a single pencil matrix that is neither "
                "zero nor an involution",
            )
        return primitive((p + trace_int) // 2 + 1, square_dev)
    return fail(
        "nonzero pencil with q >= 2, but f fails Muenzner's equation",
        "eikonal quartic with a nonzero pencil of length q >= 2 that is not "
        "isoparametric",
    )
