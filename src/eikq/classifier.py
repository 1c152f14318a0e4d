"""Classification of quartic eikonal polynomials.

Every quartic solution of |grad f|^2 = 16 |x|^6 is congruent (up to an
orthogonal change of variables and an overall sign) either to a primitive
form

    h_d = |x_H|^4 - 6 |x_H|^2 |x_{H^perp}|^2 + |x_{H^perp}|^4

determined by the dimension d of the distinguished subspace H, or to an
isoparametric quartic whose normal-form pencil is nonzero.  The congruence
class of a primitive form is the pair {d, n - d}, so reports carry the
normalized invariant dim_h = min(d, n - d).  Isoparametric quartics are
instead labeled by the multiplicity pair (m1, m2) and satisfy the radial
Laplacian law  laplacian(f) = 8 (m2 - m1) |x|^2.

`classify` verifies eikonality first, then reads a normal form of f or of
-f through `normalform.obtain_normal_form` (exactly when possible,
numerically otherwise; `eikq normalform` reads the same one), and one judge
reads the verdict off the pencil:

    q = 0 or p = 0          -> primitive (trivial pencil shapes)
    zero pencil             -> primitive with dim H = p + 1 before folding
    q = 1                   -> primitive (A^2 = I, dim H from the trace)
    q >= 2, nonzero pencil  -> isoparametric

The judge compares every structural fact with a tolerance.  On the exact
route the tolerance is 0, the facts are rational identities (A^2 = I,
`pencil_spectrum`, the Laplacian law), and a failed one raises
RuntimeError (exit 5 in the CLI), because it contradicts the structure
theory.  On the float route a residual above `tol` but below the
rejection threshold comes back as verdict "inconclusive_float", and a
larger one as "not_eikonal".

The normal form read gives (m1, m2) = (q - 1, nu).  -f has f's
multiplicities swapped and its Laplacian negated, so when the normal form
is that of -f the report swaps m1 and m2 and negates `laplacian_constant`:
both describe the input itself.  p, q, nu and mu remain those of the normal
form that was read.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .analysis import check_eikonal, pencil_spectrum
from .matrices import RationalMatrix
from .normalform import REJECT_TOL, NormalForm, NotEikonalEvidence, obtain_normal_form
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


def _round_int(value, slack: float) -> Optional[int]:
    nearest = round(value)
    return nearest if abs(value - nearest) <= slack else None


def classify(
    f: Polynomial,
    rotation: RationalMatrix | None = None,
    *,
    allow_float: bool = True,
    tol: float = 1e-9,
    seed: int = 0,
) -> ClassificationReport:
    """Decide primitive vs isoparametric for a quartic, with eikonal checks.

    The eikonal residual of f gates everything: exactly zero runs the whole
    pipeline in rational arithmetic; below `tol` the float route is taken
    (unless `allow_float` is off); between `tol` and `REJECT_TOL` the
    verdict is "inconclusive_float"; above it "not_eikonal".
    A `rotation` (exact, orthogonal) short-circuits the numeric maximizer
    and keeps even rotated inputs on the exact route.  (m1, m2) and
    `laplacian_constant` are those of f itself; p, q, nu and mu are those of
    the normal form read, which may be that of -f.
    """
    if f.is_zero or not f.is_homogeneous(4):
        raise ValueError("f must be a nonzero homogeneous quartic")
    n = f.dimension
    eik = check_eikonal(f, 4)
    deviation, mag = eik.value.max_abs_coefficient(), eik.magnitude
    if deviation > REJECT_TOL:
        return ClassificationReport(
            VERDICT_NOT_EIKONAL, n, "exact", mag,
            detail="the eikonal residual is far from zero",
        )
    if deviation > tol:
        return ClassificationReport(
            VERDICT_INCONCLUSIVE, n, "float", mag,
            detail="the eikonal residual sits between tol and the rejection threshold",
        )
    try:
        nf, negated = obtain_normal_form(
            f, rotation, eik, allow_float=allow_float, tol=tol, seed=seed
        )
    except NotEikonalEvidence as evidence:
        return ClassificationReport(
            VERDICT_NOT_EIKONAL, n, "exact" if eik.is_zero else "float",
            max(mag, REJECT_TOL), detail=str(evidence),
        )
    exact = eik.is_zero and nf.arithmetic == "exact"
    residual = max(mag, nf.extraction_residual)
    return _judge(f, nf, negated, residual, 0.0 if exact else tol, exact)


def _fold(n: int, dim_raw: int) -> int:
    return min(dim_raw, n - dim_raw)


def _judge(
    f: Polynomial, nf: NormalForm, negated: bool, residual: float, tol: float,
    exact: bool,
) -> ClassificationReport:
    """Read the verdict off the pencil of nf, the normal form of f or of -f.

    Every structural fact is a deviation compared with `tol`; the exact
    route passes tol = 0, so there the facts are rational identities.  A
    fact that fails on the exact route contradicts the structure theory of
    an exactly eikonal f and raises RuntimeError, `pencil_spectrum`'s
    ValueError included; on the float route it makes the verdict
    "inconclusive_float".
    """
    n, p, q = nf.ambient_dimension, nf.p, nf.q
    pencil = nf.pencil
    arithmetic = "exact" if exact else "float"

    def fail(detail: str, contradiction: str = "") -> ClassificationReport:
        if exact:
            raise RuntimeError(
                f"{contradiction or detail}; this contradicts the structure theory"
            )
        return ClassificationReport(
            VERDICT_INCONCLUSIVE, n, "float", max(residual, tol), p=p, q=q,
            detail=detail,
        )

    def primitive(dim_raw: int) -> ClassificationReport:
        return ClassificationReport(
            VERDICT_PRIMITIVE, n, arithmetic, residual, p=p, q=q,
            dim_h=_fold(n, dim_raw),
        )

    if residual > tol:
        return fail("extraction residual exceeds tol")
    if q == 0:
        return primitive(n)
    if p == 0:
        return primitive(1)
    # exact rationals, so that with tol = 0 only a zero pencil passes
    pencil_max = max((a.max_abs() for a in pencil), default=rational(0))
    if pencil_max <= tol:
        residual = max(residual, float(pencil_max))
        return primitive(p + 1)
    if q == 1:
        a = pencil[0]
        square_dev = (a @ a - RationalMatrix.identity(p)).max_abs()
        trace_int = _round_int(a.trace(), tol * max(p, 1))
        if square_dev > tol or trace_int is None or (p + trace_int) % 2:
            return fail(
                "single pencil matrix is not numerically an involution",
                "eikonal quartic with a single pencil matrix that is neither "
                "zero nor an involution",
            )
        residual = max(residual, float(square_dev))
        return primitive((p + trace_int) // 2 + 1)
    if exact:
        try:
            pencil_spectrum(pencil, p)
        except ValueError as err:
            return fail(str(err))
    # nu from tr(A_1^2) = 2 nu on both routes; on the exact route
    # pencil_spectrum has just proved that this trace is an even integer
    trace_sq = (pencil[0] @ pencil[0]).trace()
    doubled_nu = _round_int(trace_sq, tol * max(p, 1))
    if doubled_nu is None or doubled_nu % 2 or doubled_nu < 0:
        return fail("trace of A_1^2 is not numerically an even integer")
    residual = max(residual, abs(float(trace_sq) - doubled_nu))
    nu = doubled_nu // 2
    mu = p - 2 * nu
    if 2 * nu != p + 1 - q:
        return fail("pencil traces violate 2 nu = p + 1 - q",
                    "isoparametric pencil with 2 nu != p + 1 - q")
    # 2 nu = p + 1 - q and the Laplacian law fix (m1, m2) = (q - 1, nu) for
    # the polynomial nf was read from; -f has them swapped and its Laplacian
    # negated, so the report states those of the input f
    m1, m2, constant = q - 1, nu, rational(8 * (nu - q + 1))
    if negated:
        m1, m2, constant = m2, m1, -constant
    lap_max = (laplacian(f) - constant * radial_power(n, 1)).max_abs_coefficient()
    if lap_max > tol:
        return fail("Laplacian is not numerically 8 (m2 - m1) |x|^2",
                    "isoparametric quartic whose Laplacian is not 8 (m2 - m1) |x|^2")
    residual = max(residual, float(lap_max))
    return ClassificationReport(
        VERDICT_ISOPARAMETRIC, n, arithmetic, residual, p=p, q=q,
        nu=nu, mu=mu, m1=m1, m2=m2, laplacian_constant=str(constant),
    )
