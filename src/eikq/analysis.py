"""Exact residual checks for eikonal polynomials and quartic normal forms.

Everything here is a verifier: it takes candidate data and returns residual
polynomials that are zero exactly when a defining identity holds.  Residuals
are kept as polynomials (never booleans) so callers can inspect magnitudes,
report them, or apply numeric thresholds to rationalized float data.  Every
residual set stays packed: the eikonal residual, the Laplacian and each
residual of `check_system` and `check_structure_identities` are integers
over one common denominator (`polyring.PackedPolynomial`), so a zero test
makes no rational, a magnitude makes one, and the polynomial is unpacked
only when a residual's `value` is read.

The checks stack in three layers:

* `check_eikonal` / `check_munzner_second`: the ambient PDEs for a degree-g
  polynomial, |grad f|^2 = g^2 |x|^(2g-2) and the radial Laplacian law
  (Muenzner's second equation).  Together they define an isoparametric
  polynomial, and `classifier.classify` decides that verdict by them on f
  itself; `check_munzner_second` takes a tolerance for float data.

* `check_system`: the five identities tying together the coefficients
  (phi, psi, theta) of a quartic written as
  x_n^4 + 2 phi x_n^2 + 8 psi x_n + theta.

* `check_structure_identities` / `check_pencil`: the fine structure of
  the x_n-free data, split by xi/eta bidegree, and the spectral
  constraints on the matrix pencil behind psi.  The structure
  identities are gradient inner products over the xi or eta block (tau_i
  and A_eta xi are the partial derivatives of psi); `check_pencil` decides
  the cube identity A_eta^3 = |eta|^2 A_eta on matrices alone, on the
  integer expansion `pencils._identity_coefficients` shares with
  `eta_identity_residual`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import TYPE_CHECKING, Iterator, Optional

from .matrices import _int_matmul, _integer_entries
from .pencils import (
    Pencil,
    _identity_coefficients,
    _packed_eta_identity,
    _packed_psi,
    _packed_theta2,
    _packed_theta4,
    validate_pencil,
)
from .polyring import (
    PackedPolynomial,
    Polynomial,
    _linear_combination,
    _pack,
    _packed_partials,
    _radial_terms,
    _squares,
    packed_eikonal_residual,
    packed_laplacian,
    rational,
)

if TYPE_CHECKING:
    from .constructors import NormalFormData


def float_image(value: Fraction | float) -> float:
    """`value` as a float; inf past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def scientific(value: Fraction | float) -> str:
    """A nonnegative `value` in `.3e` notation, as reports print residuals.

    A nonzero rational below the float range keeps its exact magnitude
    (1.000e-400 rather than 0.000e+00); one past it reads inf.
    """
    image = float_image(value)
    if image or not value:
        return f"{image:.3e}"
    value = Fraction(value)
    exponent = len(str(value.numerator)) - len(str(value.denominator))
    if value < Fraction(10) ** exponent:
        exponent -= 1  # now 10^exponent <= value < 10^(exponent + 1)
    digits = round(value / Fraction(10) ** exponent * 1000)
    if digits == 10000:
        digits, exponent = 1000, exponent + 1
    return f"{digits // 1000}.{digits % 1000:03d}e{exponent:+03d}"


@dataclass(frozen=True)
class Residual:
    """A named polynomial that should be zero.

    `data` is the polynomial, or a `PackedPolynomial` left packed, as
    every check in this module leaves it.  Rationalized float data still produces
    exact arithmetic, but its tiny residuals are judged by thresholds
    rather than by emptiness (`is_zero`): the exact `max_coeff` is compared
    with the tolerance, and `magnitude` is its float image for reports.  On
    packed data the zero test is one pass over the integer numerators, made
    with the residual; `max_coeff` is one rational, and `value` unpacks the
    polynomial on its first access only.
    """

    name: str
    data: Polynomial | PackedPolynomial
    is_zero: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_zero", self.data.is_zero)

    @cached_property
    def value(self) -> Polynomial:
        data = self.data
        return data if isinstance(data, Polynomial) else data.unpack()

    @cached_property
    def max_coeff(self) -> Fraction:
        """The largest |coefficient|, exactly; 0 for a zero residual."""
        return Fraction(0) if self.is_zero else self.data.max_abs_coefficient()

    @property
    def magnitude(self) -> float:
        """The largest coefficient as a float; inf past the float range."""
        return float_image(self.max_coeff)

    def to_json_dict(self) -> dict:
        return {"zero": self.is_zero, "max_coeff": str(self.max_coeff)}


@dataclass(frozen=True)
class ResidualSet:
    """An ordered collection of named residuals."""

    residuals: tuple[Residual, ...]

    def __iter__(self) -> Iterator[Residual]:
        return iter(self.residuals)

    def __getitem__(self, name: str) -> Residual:
        for residual in self.residuals:
            if residual.name == name:
                return residual
        raise KeyError(name)

    @property
    def all_zero(self) -> bool:
        return all(residual.is_zero for residual in self.residuals)

    @property
    def max_magnitude(self) -> float:
        return max((residual.magnitude for residual in self.residuals), default=0.0)

    def to_json_dict(self) -> dict:
        return {residual.name: residual.to_json_dict() for residual in self.residuals}


def check_eikonal(f: Polynomial, g: int) -> Residual:
    """Residual of |grad f|^2 - g^2 |x|^(2g-2), left packed.

    `polyring.packed_eikonal_residual` computes it in one packed pass of
    Python ints over one common denominator: the partials are read off the
    packed keys of f and each square is summed over unordered pairs of
    terms.  The zero test makes no rational, `max_coeff` makes one, and the
    residual polynomial is unpacked only when `value` is read.
    """
    if not isinstance(g, int) or g < 1:
        raise ValueError("degree g must be a positive integer")
    return Residual("eikonal", packed_eikonal_residual(f, g))


def check_munzner_second(f: Polynomial, g: int, m_sum: int | None = None, tol: float = 0):
    """Test whether the Laplacian of f is a constant multiple of |x|^(g-2).

    Returns None when it is not.  Otherwise returns the constant c with
    laplacian(f) = c |x|^(g-2); when `m_sum` is supplied the constant is
    resolved into the multiplicity pair (m1, m2) with m2 - m1 = 2c / g^2 and
    m1 + m2 = m_sum, raising ValueError if those are not both nonnegative
    integers.  Odd g admits only c = 0.

    With tol > 0 the Laplacian need only lie within tol of c |x|^(g-2),
    coefficient by coefficient, as for rationalized float data.  c is read
    at one coefficient, that of x_0^(g-2); when `m_sum` is supplied it is
    first moved to the nearest constant with integer multiplicities, and
    the deviation is measured from that one.  The Laplacian stays packed
    (`polyring.packed_laplacian`): c |x|^(g-2) is subtracted from its
    integer numerators, and the deviation is one rational.
    """
    if not isinstance(g, int) or g < 1:
        raise ValueError("degree g must be a positive integer")
    lap = packed_laplacian(f, g)
    constant = rational(0)
    if g % 2 == 0:  # at n = 0 this reads the constant term of the zero Laplacian
        constant = lap.coefficient(tuple(g - 2 if i == 0 else 0 for i in range(f.dimension)))
        if m_sum is not None and tol > 0:
            m2 = round((m_sum + 2 * constant / (g * g)) / 2)
            constant = rational(g * g * (2 * m2 - m_sum), 2)
    if lap.minus_radial(constant, (g - 2) // 2).max_abs_coefficient() > tol:
        return None
    if m_sum is None:
        return constant
    diff = 2 * constant / (g * g)
    m2 = (m_sum + diff) / 2
    m1 = (m_sum - diff) / 2
    if m1 < 0 or m2 < 0 or m1 != int(m1) or m2 != int(m2):
        raise ValueError(
            f"constant {constant} and m1 + m2 = {m_sum} give no integer multiplicities"
        )
    return int(m1), int(m2)


def check_system(phi: Polynomial, psi: Polynomial, theta: Polynomial) -> ResidualSet:
    """The five coefficient identities of an eikonal quartic.

    phi, psi, theta live in the ring of the n-1 variables orthogonal to the
    distinguished axis; with r^2 the radial square there:

        eq1:  8 phi + |grad phi|^2            = 12 r^2
        eq2:  <grad phi, grad psi>            = -2 psi
        eq3:  4 phi^2 + <grad phi, grad theta> + 16 |grad psi|^2 = 12 r^4
        eq4:  <grad psi, grad theta>          = -4 phi psi
        eq5:  64 psi^2 + |grad theta|^2       = 16 r^6

    phi, psi and theta are each packed once, at a base above twice their
    largest degree and above 6; their partials are read off the packed
    keys.  Each residual is one `polyring._linear_combination` of packed
    lists, packed products and radial powers, and stays packed: the zero
    test makes no rational and `max_coeff` makes one.
    """
    if not phi.dimension == psi.dimension == theta.dimension:
        raise ValueError("phi, psi, theta must share one ring")
    m = phi.dimension
    base = 2 * max(phi.total_degree() or 0, psi.total_degree() or 0,
                   theta.total_degree() or 0, 3) + 1
    (f, df), (s, ds), (t, dt) = (_pack(poly, base) for poly in (phi, psi, theta))
    every = range(m)
    gf, gs, gt = (_packed_partials(terms, m, base, every) for terms in (f, s, t))

    def combine(*parts) -> PackedPolynomial:
        return _linear_combination(m, base, parts)

    def radial(power: int) -> list:
        return [(_radial_terms(m, base, every, power), None)]

    return _residual_set({
        "eq1": combine((8, df, [(f, None)]), (1, df * df, _squares(gf)), (-12, 1, radial(1))),
        "eq2": combine((1, df * ds, zip(gf, gs)), (2, ds, [(s, None)])),
        "eq3": combine((4, df * df, [(f, f)]), (1, df * dt, zip(gf, gt)),
                       (16, ds * ds, _squares(gs)), (-12, 1, radial(2))),
        "eq4": combine((1, ds * dt, zip(gs, gt)), (4, df * ds, [(f, s)])),
        "eq5": combine((64, ds * ds, [(s, s)]), (1, dt * dt, _squares(gt)), (-16, 1, radial(3))),
    })


def check_structure_identities(nf: NormalFormData) -> ResidualSet:
    """The bidegree-resolved identities of the x_n-free quartic data.

    With tau_i = xi^T A_i xi and theta_4, theta_2, theta_0 derived from the
    pencil, an assembled quartic is eikonal exactly when these seven
    residuals all vanish (the `check_system` identities eq1-eq3 hold for
    every assembled normal form, eq4 is er1 + er2 + eta, eq5 is es1-es4).

    psi, theta_4, theta_2 and the eta identity are laid out packed from the
    integer pencil of `matrices._integer_entries`, with no polynomial in
    between; theta_3 is packed once.  Every gradient is read off packed
    keys and restricted to the xi or the eta block, and each residual is
    one `polyring._linear_combination` left packed, like `check_system`'s.
    """
    p, q = nf.p, nf.q
    pencil = validate_pencil(nf.pencil, p)
    n = p + q
    base = 7  # every residual has degree 6, the eta identity 5
    mats, den = _integer_entries(pencil)
    psi = _packed_psi(mats, den, p, base)
    theta4 = _packed_theta4(mats, den, p, base)
    theta2 = _packed_theta2(mats, den, p, base)
    theta3, d3 = _pack(nf.theta3, base)
    s, ds = list(psi.numerators.items()), psi.denominator
    d4, d2 = theta4.denominator, theta2.denominator
    xi, eta = range(p), range(p, n)

    def combine(*parts) -> PackedPolynomial:
        return _linear_combination(n, base, parts)

    def grad(terms, block: range) -> list:
        return _packed_partials(terms, n, base, block)

    s_xi, s_eta = grad(s, xi), grad(s, eta)
    t3_xi, t3_eta = grad(theta3, xi), grad(theta3, eta)
    t2_xi, t2_eta = grad(theta2.numerators.items(), xi), grad(theta2.numerators.items(), eta)
    t4_xi = grad(theta4.numerators.items(), xi)
    t0_eta = grad(_radial_terms(n, base, eta, 2), eta)
    xi2, eta1 = _radial_terms(n, base, xi, 2), list(_radial_terms(n, base, eta, 1))

    # d psi / d eta_i = tau_i and d psi / d xi_j = 2 (A_eta xi)_j
    return _residual_set({
        "er1": combine((1, ds * d3, zip(s_eta, t3_eta))),
        "er2": combine((1, 2 * ds * d3, zip(s_xi, t3_xi))),
        "eta": _packed_eta_identity(mats, den, p, base),
        "es1": combine((1, d4 * d4, _squares(t4_xi)), (1, d3 * d3, _squares(t3_eta)),
                       (-16, 1, [(_radial_terms(n, base, xi, 3), None)])),
        "es2": combine((1, d4 * d3, zip(t4_xi, t3_xi)), (1, d3 * d2, zip(t3_eta, t2_eta))),
        "es3": combine((64, ds * ds, [(s, s)]), (2, d4 * d2, zip(t4_xi, t2_xi)),
                       (1, d2 * d2, _squares(t2_eta)), (1, d3 * d3, _squares(t3_xi)),
                       (-48, 1, [(xi2, eta1)])),
        "es4": combine((1, d3 * d2, zip(t3_xi, t2_xi)), (1, d3, zip(t3_eta, t0_eta))),
    })


def _residual_set(residuals: dict[str, PackedPolynomial]) -> ResidualSet:
    return ResidualSet(tuple(Residual(name, data) for name, data in residuals.items()))


@dataclass(frozen=True)
class PencilReport:
    """Outcome of the spectral checks on a pencil.

    nu and mu are the +/-1 and kernel multiplicities read off the traces;
    they are None when the traces are inconsistent with that spectrum.  A
    single-matrix pencil only needs the cube identity to pass; longer
    pencils need every identity plus a constant spectrum.
    """

    q: int
    nu: Optional[int]
    mu: Optional[int]
    trace_free: bool
    cube_identity: bool
    symmetrized_identity: bool
    spectrum_constant: bool

    @property
    def spectral(self) -> bool:
        """True when every matrix has spectrum {+1 (nu), -1 (nu), 0 (mu)}."""
        return self.spectrum_constant and self.symmetrized_identity

    @property
    def passed(self) -> bool:
        return self.cube_identity if self.q == 1 else self.spectral

    def to_json_dict(self) -> dict:
        """The fields in declaration order, then `passed`."""
        return {**asdict(self), "passed": self.passed}


def check_pencil(pencil: Pencil, p: int) -> PencilReport:
    """Spectral and symmetrized-product checks for a pencil of length q >= 1.

    The cube identity A_eta^3 = |eta|^2 A_eta holds for every eta exactly
    when its coefficient matrix vanishes at every eta-monomial: the cube
    A_i^3 = A_i, the coordinate pairs A_i^2 A_j + A_i A_j A_i + A_j A_i^2
    = A_j for i != j, and for each i < j < k the sum of A_a A_b A_c over
    the six orders of (i, j, k) is zero.  Every coefficient matrix is
    symmetric, so this decides `eta_identity_residual` = 0 on matrices
    alone.

    The input checks (`validate_pencil`, a nonempty pencil) come first;
    then the pencil is put over D, the lcm of every denominator, by
    `matrices._integer_entries`, and `_integer_pencil_report` decides it
    in integers.  `constructors.search_isoparametric_pencil` calls that
    integer core directly on its +/-1 seeds, with D = 1.
    """
    pencil = validate_pencil(pencil, p)
    if not pencil:
        raise ValueError("pencil must contain at least one matrix")
    mats, den = _integer_entries(pencil)
    return _integer_pencil_report(mats, den, p)


def _integer_pencil_report(mats, den: int, p: int) -> PencilReport:
    """`check_pencil` on B_i = D A_i: `mats` the integer rows of q >= 1
    symmetric p x p matrices, all over the one denominator `den`.

    `pencils._identity_coefficients` yields the identity's coefficient
    matrices in `check_pencil`'s order, scaled by D^3, and the test stops at
    the first nonzero one; the squares B_i^2 serve the identity and the
    traces.  The traces need no scaling to be tested for zero or for
    equality, and tr(A_0^2) = tr(B_0^2) / D^2.  No rational is made.
    """
    q = len(mats)
    squares = [_int_matmul(b, b) for b in mats]
    coefficients = _identity_coefficients(mats, squares, den)
    cube = all(_is_zero(c) for _, c in islice(coefficients, q))
    trace_free = all(_trace(b) == 0 for b in mats)
    square_traces = [_trace(sq) for sq in squares]
    t0, remainder = divmod(square_traces[0], den * den)
    nu: Optional[int] = None
    mu: Optional[int] = None
    if remainder == 0 and t0 % 2 == 0 and 0 <= t0 <= p:
        nu = t0 // 2
        mu = p - 2 * nu
    spectrum_constant = (
        nu is not None
        and trace_free
        and cube
        and all(t == square_traces[0] for t in square_traces)
    )
    symmetrized = cube and all(_is_zero(c) for _, c in coefficients)
    return PencilReport(
        q=q, nu=nu, mu=mu, trace_free=trace_free, cube_identity=cube,
        symmetrized_identity=symmetrized, spectrum_constant=spectrum_constant,
    )


def _trace(b) -> int:
    return sum(row[i] for i, row in enumerate(b))


def _is_zero(m) -> bool:
    return not any(map(any, m))
