"""Tests for the residual checks: eikonal, radial Laplacian, the five-equation
coefficient system, the bidegree structure identities, and pencil spectra."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _data as data
import _oracles as oracles
from eikq import polyring
from test_pencils import (
    ref_block_radial,
    ref_eta_residual,
    ref_mul,
    ref_psi,
    ref_theta2,
    ref_theta4,
)
from eikq.analysis import (
    Residual,
    check_eikonal,
    check_munzner_second,
    check_pencil,
    check_structure_identities,
    check_system,
    scientific,
)
from eikq.constructors import (
    NormalFormData,
    _conjugations,
    _seed_matrices,
    assemble_from_normal_form,
    make_canonical_quartic,
    make_primitive,
)
from eikq.matrices import RationalMatrix, random_rational_orthogonal
from eikq.pencils import (
    block_radial,
    eta_identity_residual,
    psi_from_pencil,
    theta0_poly,
    theta2_from_pencil,
    theta4_from_pencil,
)
from eikq.polyring import (
    Polynomial,
    partial_derivative,
    rational,
    substitute_linear,
)


def system_parts(d: NormalFormData):
    """phi, psi, theta of the assembled quartic, in the p + q variable ring."""
    m = d.dimension
    phi = block_radial(m, range(d.p)) - 3 * block_radial(m, range(d.p, m))
    psi = psi_from_pencil(d.pencil, d.p)
    theta = (
        theta4_from_pencil(d.pencil, d.p)
        + d.theta3
        + theta2_from_pencil(d.pencil, d.p)
        + theta0_poly(d.p, d.q)
    )
    return phi, psi, theta


def fraction_eikonal_residual(f: Polynomial, g: int) -> dict:
    """The residual as {exponents: Fraction}, term by term in plain `Fraction`s.

    A double loop over the terms of each partial of f, less g^2 times
    |x|^(2g-2) expanded one factor |x|^2 at a time; nothing of `polyring`
    beyond the terms of f is used.
    """
    n = f.dimension
    out: dict = {}
    for i in range(n):
        partial = [
            (m[:i] + (m[i] - 1,) + m[i + 1:], c * m[i]) for m, c in f.terms.items() if m[i]
        ]
        for m1, c1 in partial:
            for m2, c2 in partial:
                m = tuple(x + y for x, y in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
    radial = {(0,) * n: Fraction(1)}
    for _ in range(g - 1):
        step: dict = {}
        for m, c in radial.items():
            for i in range(n):
                raised = m[:i] + (m[i] + 2,) + m[i + 1:]
                step[raised] = step.get(raised, 0) + c
        radial = step
    for m, c in radial.items():
        out[m] = out.get(m, 0) - g * g * c
    return {m: c for m, c in out.items() if c}


_COEFFICIENTS = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.sampled_from([10 ** 400, -(10 ** 400)])),
    st.sampled_from([1, 2, 3, 4, 7, 12]),
)


@st.composite
def _eikonal_cases(draw):
    """(f, g, planted) with n = 0..5 and g = 1..6.

    Either a planted solution `make_primitive(g, n, d)` under a Cayley
    rotation, sometimes perturbed by one monomial, or a random f of degree
    0..g+1 with mixed denominators and sometimes a 10^400 numerator: the
    zero polynomial, constants and non-homogeneous f included.
    """
    n = draw(st.integers(0, 5))
    g = draw(st.integers(1, 6))
    if n >= 1 and draw(st.booleans()):
        dimh = 1 if g % 2 else draw(st.integers(0, n))
        rotation = random_rational_orthogonal(n, draw(st.integers(0, 10 ** 4)))
        f = substitute_linear(make_primitive(g, n, dimh), rotation)
        if not draw(st.booleans()):
            return f, g, True
        exponents = draw(st.lists(st.integers(0, g), min_size=n, max_size=n))
        return f + Polynomial.monomial(n, exponents, draw(_COEFFICIENTS)), g, False
    monomials = st.lists(st.integers(0, g + 1), min_size=n, max_size=n).filter(
        lambda m: sum(m) <= g + 1
    )
    terms = draw(st.lists(st.tuples(monomials, _COEFFICIENTS), max_size=6))
    return Polynomial(n, {tuple(m): c for m, c in terms}), g, False


class TestCheckEikonal:
    def test_zero_on_solutions(self):
        for f in data.corpus():
            assert check_eikonal(f, 4).is_zero

    def test_nonzero_on_non_solution(self):
        f = Polynomial.monomial(2, (4, 0))
        res = check_eikonal(f, 4)
        assert not res.is_zero
        assert res.magnitude == 48.0

    def test_residual_matches_sympy(self):
        sextic = substitute_linear(make_primitive(6, 3, 2), random_rational_orthogonal(3, 5))
        assert check_eikonal(sextic, 6).is_zero
        perturbed = sextic + Polynomial.monomial(3, (3, 0, 0), Fraction(-2, 7))
        for f, g in ((make_canonical_quartic(3, 1), 4), (Polynomial.monomial(2, (4, 0)), 4),
                     (sextic, 6), (perturbed, 6)):
            ours = oracles.to_sympy(check_eikonal(f, g).value)
            assert ours == oracles.eikonal_residual(f, g)

    @settings(max_examples=150, deadline=None)
    @given(case=_eikonal_cases())
    @example(case=(Polynomial.variable(1, 0), 1, True))
    @example(case=(-Polynomial.variable(1, 0), 1, True))
    @example(case=(Polynomial(2, {(1, 0): 3, (0, 1): 1}), 1, False))
    @example(case=(Polynomial.variable(1, 0), 2, False))
    def test_integer_residual_matches_fraction_reference(self, case):
        f, g, planted = case
        residual = check_eikonal(f, g)
        reference = fraction_eikonal_residual(f, g)
        assert residual.value.dimension == f.dimension
        assert residual.value.terms == reference
        assert residual.is_zero == (not reference)
        assert list(residual.value.terms) == [m for m, _ in residual.value.sorted_terms()]
        if planted:
            assert residual.is_zero

    @settings(max_examples=150, deadline=None)
    @given(case=_eikonal_cases())
    @example(case=(Polynomial.zero(3), 4, False))
    @example(case=(Polynomial(2, {(4, 0): 10 ** 400, (0, 4): 1}), 4, False))
    @example(case=(Polynomial(2, {(3, 0): Fraction(1, 3), (0, 2): Fraction(-5, 12)}), 4, False))
    def test_max_coeff_reads_packed_numerators(self, case):
        # max |numerator| / D, one rational, is the largest |coefficient| of
        # the unpacked residual, and the zero test agrees with it
        f, g, _ = case
        residual = check_eikonal(f, g)
        expected = check_eikonal(f, g).value.max_abs_coefficient()
        assert residual.max_coeff == expected
        assert type(residual.max_coeff) is Fraction
        assert residual.is_zero == (expected == 0)
        assert residual.to_json_dict() == {"zero": expected == 0, "max_coeff": str(expected)}

    def test_one_packed_pass(self, monkeypatch):
        # the partials are read off packed keys; the zero test, the magnitude
        # and the report read the packed numerators, and only `value` unpacks,
        # once
        planted = substitute_linear(make_primitive(4, 6, 2), random_rational_orthogonal(6, 3))
        perturbed = planted + Polynomial.monomial(6, (1, 1, 1, 1, 0, 0), Fraction(1, 3))
        calls = {"partial_derivative": 0, "_unpack": 0}
        for name in calls:
            original = getattr(polyring, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(polyring, name, counting)
        assert check_eikonal(planted, 4).is_zero
        assert calls == {"partial_derivative": 0, "_unpack": 0}
        residual = check_eikonal(perturbed, 4)
        assert not residual.is_zero
        assert residual.magnitude > 0
        assert residual.to_json_dict()["zero"] is False
        assert calls == {"partial_derivative": 0, "_unpack": 0}
        value = residual.value
        assert not value.is_zero
        assert calls == {"partial_derivative": 0, "_unpack": 1}
        assert residual.value is value
        assert calls == {"partial_derivative": 0, "_unpack": 1}

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            check_eikonal(Polynomial.monomial(2, (4, 0)), 0)

    def test_orthogonal_invariance(self):
        f = make_canonical_quartic(4, 1)
        u = random_rational_orthogonal(4, 11)
        assert check_eikonal(substitute_linear(f, u), 4).is_zero

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_orthogonal_invariance_property(self, seed):
        f = assemble_from_normal_form(data.involution_data())
        u = random_rational_orthogonal(4, seed)
        assert check_eikonal(substitute_linear(f, u), 4).is_zero


class TestMunznerSecond:
    def test_not_radial_returns_none(self):
        # canonical quartics with k < n/2 have a non-radial Laplacian
        assert check_munzner_second(make_canonical_quartic(5, 1), 4) is None

    def test_harmonic_constant_zero(self):
        f = assemble_from_normal_form(data.isoparametric_data())
        assert check_munzner_second(f, 4) == 0

    def test_multiplicities_resolved(self):
        f = assemble_from_normal_form(data.isoparametric_data())
        assert check_munzner_second(f, 4, m_sum=2) == (1, 1)

    def test_balanced_split_constant(self):
        # dim H = n/2 gives laplacian = (8 - 4n) |x|^2
        f = make_primitive(4, 4, 2)
        assert check_munzner_second(f, 4) == rational(-8)
        assert check_munzner_second(f, 4, m_sum=1) == (1, 0)

    def test_non_integer_multiplicities_raise(self):
        f = make_primitive(4, 4, 2)
        with pytest.raises(ValueError, match="multiplicities"):
            check_munzner_second(f, 4, m_sum=2)

    def test_odd_degree(self):
        # the cubic is harmonic only at n = 2
        assert check_munzner_second(make_primitive(3, 2, 1), 3) == 0
        assert check_munzner_second(make_primitive(3, 5, 1), 3) is None

    def test_radial_quartic(self):
        # laplacian |x|^4 = (4n + 8) |x|^2
        f = make_primitive(4, 3, 0)
        assert check_munzner_second(f, 4) == rational(20)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            check_munzner_second(Polynomial.zero(2), 0)

    def test_tolerance_on_float_rotated_input(self):
        # a rationalized float rotation is orthogonal only to roundoff, so
        # the Laplacian of the rotated FKM(1, 4) is 8 |x|^2 only within tol
        import numpy as np

        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((8, 8)))
        g = substitute_linear(data.fkm_1_4(), RationalMatrix.from_float(q))
        assert check_munzner_second(g, 4) is None
        assert check_munzner_second(g, 4, m_sum=3, tol=1e-9) == (1, 2)
        assert check_munzner_second(g, 4, m_sum=3, tol=1e-20) is None
        constant = check_munzner_second(g, 4, tol=1e-9)
        assert constant != 8 and abs(constant - 8) <= 1e-9


class TestCheckSystem:
    def test_zero_on_assembled_data(self):
        for d in (data.involution_data(), data.zero_pencil_data(),
                  data.isoparametric_data()):
            res = check_system(*system_parts(d))
            assert res.all_zero
            assert [r.name for r in res] == ["eq1", "eq2", "eq3", "eq4", "eq5"]

    def test_corrupted_theta3_breaks_only_late_equations(self):
        d = data.isoparametric_data()
        phi, psi, theta = system_parts(d)
        res = check_system(phi, psi, theta + d.theta3)  # doubles theta_3
        assert res["eq1"].is_zero and res["eq2"].is_zero and res["eq3"].is_zero
        assert not res["eq5"].is_zero
        assert not res.all_zero
        assert res.max_magnitude > 0

    def test_ring_mismatch(self):
        with pytest.raises(ValueError, match="ring"):
            check_system(Polynomial.zero(2), Polynomial.zero(2), Polynomial.zero(3))

    def test_getitem_unknown_name(self):
        res = check_system(*system_parts(data.involution_data()))
        with pytest.raises(KeyError):
            res["eq9"]

    def test_residual_json_shape(self):
        res = check_system(*system_parts(data.involution_data()))
        payload = res.to_json_dict()
        assert payload["eq1"] == {"zero": True, "max_coeff": "0"}


class TestStructureIdentities:
    def test_zero_on_known_solutions(self):
        for d in (data.involution_data(), data.zero_pencil_data(),
                  data.isoparametric_data()):
            res = check_structure_identities(d)
            assert res.all_zero
            assert [r.name for r in res] == [
                "er1", "er2", "eta", "es1", "es2", "es3", "es4",
            ]

    def test_scaled_theta3_fails(self):
        d = data.isoparametric_data()
        bad = NormalFormData(d.p, d.q, d.pencil, 3 * d.theta3)
        res = check_structure_identities(bad)
        assert not res.all_zero
        assert not res["es1"].is_zero

    def test_bad_pencil_fails(self):
        bad = NormalFormData(
            2, 1, (RationalMatrix.identity(2).scale(2),), Polynomial.zero(3)
        )
        res = check_structure_identities(bad)
        assert not res["eta"].is_zero

    def test_equivalent_to_system_and_eikonal(self):
        # dual route: the bidegree identities against the direct PDE check
        for d in data.mixed_normal_form_stream(40, seed=7):
            both = (
                check_system(*system_parts(d)).all_zero
                and check_structure_identities(d).all_zero
            )
            direct = check_eikonal(assemble_from_normal_form(d), 4).is_zero
            assert both == direct


def naive_pencil_report(pencil, p: int) -> dict:
    """check_pencil's JSON report from the definitions, on lists of Fractions."""
    mats = [[[Fraction(v) for v in row] for row in a.entries] for a in pencil]

    def mm(x, y):
        return [[sum((x[i][k] * y[k][j] for k in range(p)), Fraction(0)) for j in range(p)]
                for i in range(p)]

    def tr(x):
        return sum((x[i][i] for i in range(p)), Fraction(0))

    q = len(mats)
    cube = all(mm(mm(a, a), a) == a for a in mats)
    trace_free = all(tr(a) == 0 for a in mats)
    t0 = tr(mm(mats[0], mats[0]))
    nu = mu = None
    if t0.denominator == 1 and t0 % 2 == 0 and 0 <= t0 <= p:
        nu = int(t0) // 2
        mu = p - 2 * nu
    spectrum = nu is not None and trace_free and cube and all(
        tr(mm(a, a)) == t0 for a in mats)
    pairs = all(
        [[x + y + z for x, y, z in zip(r1, r2, r3)]
         for r1, r2, r3 in zip(mm(mm(s, s), t), mm(mm(s, t), s), mm(mm(t, s), s))] == t
        for i, s in enumerate(mats)
        for j, t in enumerate(mats)
        if i != j
    )
    symmetrized = pairs and ref_eta_residual(pencil, p).is_zero
    if q == 1:
        passed = cube
    else:
        passed = trace_free and cube and symmetrized and spectrum and nu is not None
    return {
        "q": q, "nu": nu, "mu": mu, "trace_free": trace_free, "cube_identity": cube,
        "symmetrized_identity": symmetrized, "spectrum_constant": spectrum, "passed": passed,
    }


def _examined_pencils(p: int, q: int, nu: int, count: int) -> list[tuple[tuple, tuple]]:
    """(raw seed tuple, conjugated pencil) for the first `count` pencils
    search(p, q, nu) examines, in search order: each conjugation in turn,
    each tuple of distinct seeds, each pencil at its first appearance."""
    seeds = _seed_matrices(p, nu)
    seen = set()
    out = []
    for conj in _conjugations(p):
        for raw in product(seeds, repeat=q):
            if nu > 0 and q > 1 and len({m.entries for m in raw}) != q:
                continue
            pencil = tuple(conj.transpose() @ a @ conj for a in raw)
            key = tuple(m.entries for m in pencil)
            if key not in seen:
                seen.add(key)
                out.append((raw, pencil))
                if len(out) == count:
                    return out
    return out


_ENTRIES = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def _rational_pencils(draw):
    """Symmetric rational pencils with mixed denominators, p <= 4 and q <= 4.

    Each matrix is either random or a rational rotation of a {+1, -1, 0}
    diagonal, which passes the cube identity and reaches the later checks;
    sometimes the whole pencil is a rotated copy of the (3, 2, 1) pencil,
    which passes everything.
    """
    if draw(st.integers(0, 5)) == 0:
        u = random_rational_orthogonal(3, draw(st.integers(0, 10 ** 4)))
        pencil = data.isoparametric_data().pencil
        return tuple(u.transpose() @ a @ u for a in pencil), 3
    p = draw(st.integers(1, 4))
    q = draw(st.integers(1, 4))
    u = random_rational_orthogonal(p, draw(st.integers(0, 10 ** 4)))
    pencil = []
    for _ in range(q):
        if draw(st.booleans()):
            diag = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=p, max_size=p))
            pencil.append(u.transpose() @ RationalMatrix.diagonal(diag) @ u)
        else:
            rows = [[Fraction(0)] * p for _ in range(p)]
            for i in range(p):
                for j in range(i, p):
                    rows[i][j] = rows[j][i] = draw(_ENTRIES)
            pencil.append(RationalMatrix(rows))
    return tuple(pencil), p


def ref_inner(a: Polynomial, b: Polynomial, indices) -> Polynomial:
    """<grad a, grad b> over x_i, i in indices, by `partial_derivative` and `ref_mul`."""
    out = Polynomial.zero(a.dimension)
    for i in indices:
        out = out + ref_mul(partial_derivative(a, i), partial_derivative(b, i))
    return out


def ref_check_system(phi: Polynomial, psi: Polynomial, theta: Polynomial) -> dict:
    """check_system's residuals by `Polynomial` sums and scalar multiples of
    the schoolbook products and gradients above, which share no code with
    the packed step."""
    m = phi.dimension
    every = range(m)

    def radial(power: int) -> Polynomial:
        return ref_block_radial(m, every, power)

    return {
        "eq1": 8 * phi + ref_inner(phi, phi, every) - 12 * radial(1),
        "eq2": ref_inner(phi, psi, every) + 2 * psi,
        "eq3": (4 * ref_mul(phi, phi) + ref_inner(phi, theta, every)
                + 16 * ref_inner(psi, psi, every) - 12 * radial(2)),
        "eq4": ref_inner(psi, theta, every) + 4 * ref_mul(phi, psi),
        "eq5": 64 * ref_mul(psi, psi) + ref_inner(theta, theta, every) - 16 * radial(3),
    }


def ref_check_structure_identities(nf: NormalFormData) -> dict:
    """check_structure_identities' residuals the same way, on the pencil pieces
    of the reference loops in test_pencils."""
    p, dim = nf.p, nf.dimension
    xi, eta = range(p), range(p, dim)
    psi, theta3 = ref_psi(nf.pencil, p), nf.theta3
    theta4, theta2 = ref_theta4(nf.pencil, p), ref_theta2(nf.pencil, p)
    theta0 = ref_block_radial(dim, eta, 2)
    return {
        "er1": ref_inner(psi, theta3, eta),
        "er2": rational(1, 2) * ref_inner(psi, theta3, xi),
        "eta": ref_eta_residual(nf.pencil, p),
        "es1": (ref_inner(theta4, theta4, xi) + ref_inner(theta3, theta3, eta)
                - 16 * ref_block_radial(dim, xi, 3)),
        "es2": ref_inner(theta4, theta3, xi) + ref_inner(theta3, theta2, eta),
        "es3": (64 * ref_mul(psi, psi) + 2 * ref_inner(theta4, theta2, xi)
                + ref_inner(theta2, theta2, eta) + ref_inner(theta3, theta3, xi)
                - 48 * ref_mul(ref_block_radial(dim, xi, 2), ref_block_radial(dim, eta, 1))),
        "es4": ref_inner(theta3, theta2, xi) + ref_inner(theta3, theta0, eta),
    }


def assert_same_residuals(got, want: dict) -> None:
    """Same names in order, and per residual the same polynomial, zero test and magnitude."""
    assert [r.name for r in got] == list(want)
    for residual in got:
        reference = want[residual.name]
        assert residual.value == reference
        assert residual.is_zero == reference.is_zero
        assert residual.max_coeff == reference.max_abs_coefficient()


@st.composite
def _system_cases(draw):
    """(phi, psi, theta) in m = 0..4 variables, each up to 5 terms of degree
    0..6 with mixed denominators and sometimes a 10^400 numerator, so that
    the packing base grows past its floor of 7."""
    m = draw(st.integers(0, 4))
    monomials = st.lists(st.integers(0, 6), min_size=m, max_size=m).filter(
        lambda e: sum(e) <= 6
    )

    def poly() -> Polynomial:
        terms = draw(st.lists(st.tuples(monomials, _COEFFICIENTS), max_size=5))
        return Polynomial(m, {tuple(e): c for e, c in terms})

    return poly(), poly(), poly()


@st.composite
def _structure_cases(draw):
    """A rational pencil of `_rational_pencils` with a random theta_3 of
    bidegree (3, 1): up to 4 terms, mixed denominators, 10^400 numerators."""
    pencil, p = draw(_rational_pencils())
    q = len(pencil)
    theta3 = {}
    for _ in range(draw(st.integers(0, 4))):
        exponents = [0] * (p + q)
        for i in draw(st.lists(st.integers(0, p - 1), min_size=3, max_size=3)):
            exponents[i] += 1
        exponents[p + draw(st.integers(0, q - 1))] += 1
        theta3[tuple(exponents)] = draw(_COEFFICIENTS)
    return NormalFormData(p, q, pencil, Polynomial(p + q, theta3))


def _doubled_theta3(d: NormalFormData) -> NormalFormData:
    return NormalFormData(d.p, d.q, d.pencil, 2 * d.theta3)


_PLANTED = (data.involution_data(), data.zero_pencil_data(), data.isoparametric_data())


class TestPackedResidualSets:
    """check_system and check_structure_identities against the `Polynomial`
    formulas of `ref_check_system` and `ref_check_structure_identities`."""

    @settings(max_examples=80, deadline=None)
    @given(parts=_system_cases())
    @example(parts=system_parts(_PLANTED[0]))
    @example(parts=system_parts(_PLANTED[1]))
    @example(parts=system_parts(_PLANTED[2]))
    @example(parts=system_parts(_doubled_theta3(_PLANTED[2])))
    @example(parts=(Polynomial.zero(0), Polynomial.zero(0), Polynomial.zero(0)))
    def test_check_system_matches_polynomial_formulas(self, parts):
        assert_same_residuals(check_system(*parts), ref_check_system(*parts))

    @settings(max_examples=60, deadline=None)
    @given(nf=_structure_cases())
    @example(nf=_PLANTED[0])
    @example(nf=_PLANTED[1])
    @example(nf=_PLANTED[2])
    @example(nf=_doubled_theta3(_PLANTED[2]))
    def test_structure_identities_match_polynomial_formulas(self, nf):
        assert_same_residuals(check_structure_identities(nf), ref_check_structure_identities(nf))

    def test_planted_records_unpack_nothing(self, monkeypatch):
        # every residual is left packed: the zero tests, the magnitudes and
        # the report read integers, and only `value` unpacks, once per residual
        parts = [system_parts(d) for d in _PLANTED + (_doubled_theta3(_PLANTED[2]),)]
        calls = []
        original = polyring._unpack

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(polyring, "_unpack", counting)
        for d, system in zip(_PLANTED, parts):
            assert check_system(*system).all_zero
            assert check_structure_identities(d).all_zero
        assert not calls
        system = check_system(*parts[-1])
        structure = check_structure_identities(_doubled_theta3(_PLANTED[2]))
        assert not system.all_zero and not structure.all_zero
        assert system.max_magnitude > 0 and structure.max_magnitude > 0
        assert system.to_json_dict() and structure.to_json_dict()
        assert not calls
        residuals = list(system) + list(structure)
        values = [r.value for r in residuals]
        assert len(calls) == len(values) == 12
        # a second read returns the same polynomial and unpacks nothing more
        again = [r.value for r in residuals]
        assert all(a is b for a, b in zip(again, values))
        assert len(calls) == 12


class TestCheckPencil:
    def test_single_involution(self):
        report = check_pencil((RationalMatrix.diagonal([1, -1, 0]),), 3)
        assert report.passed
        assert report.spectral
        assert (report.nu, report.mu) == (1, 1)
        assert report.q == 1

    def test_single_non_cube(self):
        report = check_pencil((RationalMatrix.diagonal([2, 0]),), 2)
        assert not report.cube_identity
        assert not report.passed

    def test_identity_matrix_passes_q1_but_not_spectral(self):
        report = check_pencil((RationalMatrix.identity(2),), 2)
        assert report.passed  # q = 1 only needs the cube identity
        assert not report.trace_free
        assert not report.spectral

    def test_zero_matrix(self):
        report = check_pencil((RationalMatrix.zeros(3, 3),), 3)
        assert report.passed
        assert (report.nu, report.mu) == (0, 3)

    def test_good_pair(self):
        report = check_pencil(data.isoparametric_data().pencil, 3)
        assert report.passed
        assert report.symmetrized_identity
        assert report.spectrum_constant
        assert (report.nu, report.mu) == (1, 1)

    def test_pair_violating_symmetrized_identity(self):
        a1 = RationalMatrix.diagonal([1, -1, 0])
        a2 = RationalMatrix.diagonal([1, 0, -1])
        report = check_pencil((a1, a2), 3)
        assert report.cube_identity
        assert not report.symmetrized_identity
        assert not report.passed

    def test_empty_pencil(self):
        with pytest.raises(ValueError, match="at least one"):
            check_pencil((), 3)

    def test_asymmetric_matrix_rejected(self):
        # the record and the check share validate_pencil, and its message
        bad = RationalMatrix([[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="^pencil matrix 0 is not symmetric$"):
            NormalFormData(2, 1, (bad,), Polynomial.zero(3))
        with pytest.raises(ValueError, match="^pencil matrix 0 is not symmetric$"):
            check_pencil((bad,), 2)

    def test_pencil_errors_in_matrix_order(self):
        # shape, then symmetry, matrix by matrix: the first bad matrix names the error
        good, bad = RationalMatrix.identity(2), RationalMatrix([[0, 1], [0, 0]])
        wide = RationalMatrix([[1, 0, 0], [0, 1, 0]])
        for pencil, message in (
            ((good, bad, wide), "pencil matrix 1 is not symmetric"),
            ((good, wide, bad), "pencil matrix 1 is not 2 x 2"),
            ((bad, RationalMatrix.identity(3)), "pencil matrix 0 is not symmetric"),
            ((RationalMatrix.identity(3), bad), "pencil matrix 0 is not 2 x 2"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check_pencil(pencil, 2)
            with pytest.raises(ValueError, match=f"^{message}$"):
                NormalFormData(2, len(pencil), pencil, Polynomial.zero(2 + len(pencil)))

    def test_symmetrized_identity_is_eta_identity(self):
        pencils = [
            ((RationalMatrix.diagonal([1, -1, 0]),), 3),
            ((RationalMatrix.diagonal([2, 0]),), 2),
            ((RationalMatrix.identity(2),), 2),
            ((RationalMatrix.zeros(3, 3),), 3),
            (data.isoparametric_data().pencil, 3),
            ((RationalMatrix.diagonal([1, -1, 0]), RationalMatrix.diagonal([1, 0, -1])), 3),
        ]
        # every conjugated pencil search(3, 2, 1) examines, and the first
        # ones of (4, 3, 1) and (5, 4, 1): q >= 3 has triples i < j < k, and
        # the (4, 3, 1) prefix holds pencils that pass the coordinate pairs
        # and fail only on a triple
        corpus = [
            (raw, pencil, p)
            for p, q, nu, count in ((3, 2, 1, 10 ** 6), (4, 3, 1, 160), (5, 4, 1, 40))
            for raw, pencil in _examined_pencils(p, q, nu, count)
        ]
        assert len(corpus) == 356
        for pencil, p in pencils + [(pencil, p) for _, pencil, p in corpus]:
            report = check_pencil(pencil, p)
            assert report.symmetrized_identity == eta_identity_residual(pencil, p).is_zero
            assert report.to_json_dict() == naive_pencil_report(pencil, p)
        # the search screens each seed set once, unconjugated and in index
        # order; that is exact only if these agree
        for raw, pencil, p in corpus:
            report = check_pencil(pencil, p)
            assert check_pencil(raw, p).to_json_dict() == report.to_json_dict()
            for reordered in (raw[::-1], raw[1:] + raw[:1]):
                assert check_pencil(reordered, p).passed == report.passed

    @settings(max_examples=60, deadline=None)
    @given(case=st.data())
    def test_integer_kernel_matches_definitions(self, case):
        pencil, p = case.draw(_rational_pencils())
        assert check_pencil(pencil, p).to_json_dict() == naive_pencil_report(pencil, p)

    def test_json_dict(self):
        payload = check_pencil((RationalMatrix.zeros(2, 2),), 2).to_json_dict()
        assert payload["passed"] is True
        assert payload["nu"] == 0 and payload["mu"] == 2

    def test_cube_identity_matches_sympy(self):
        pencil = data.isoparametric_data().pencil
        assert oracles.pencil_identity_residual(pencil).is_zero_matrix
        bad = (RationalMatrix.diagonal([1, -1, 0]), RationalMatrix.diagonal([1, 0, -1]))
        assert not oracles.pencil_identity_residual(bad).is_zero_matrix


class TestPencilSpectrum:
    """The {+1 (nu), -1 (nu), 0 (mu)} spectrum, read by `check_pencil`."""

    def test_known_values(self):
        for pencil in ((RationalMatrix.diagonal([1, -1, 0]),),
                       data.isoparametric_data().pencil):
            report = check_pencil(pencil, 3)
            assert report.spectral
            assert (report.nu, report.mu) == (1, 1)

    def test_rejects_non_spectral(self):
        # I^3 = I, but its spectrum {1, 1} has trace 2, not 0
        report = check_pencil((RationalMatrix.identity(2),), 2)
        assert report.cube_identity
        assert not report.spectral
        assert (report.nu, report.mu) == (1, 0)


class TestResidualMechanics:
    def test_magnitude_and_json(self):
        res = Residual("demo", Polynomial.monomial(2, (1, 0), rational(-3, 2)))
        assert res.magnitude == 1.5
        assert res.to_json_dict() == {"zero": False, "max_coeff": "3/2"}

    def test_zero_residual(self):
        res = Residual("demo", Polynomial.zero(2))
        assert res.is_zero
        assert res.magnitude == 0.0

    def test_magnitude_past_the_float_range(self):
        res = Residual("demo", Polynomial.monomial(2, (1, 0), 10 ** 400))
        assert res.magnitude == float("inf")
        assert res.to_json_dict() == {"zero": False, "max_coeff": str(10 ** 400)}

    @pytest.mark.parametrize("value, text", [
        (0, "0.000e+00"),
        (0.0, "0.000e+00"),
        (48.0, "4.800e+01"),
        (rational(3, 7), "4.286e-01"),
        (rational(1, 10 ** 400), "1.000e-400"),
        (rational(96, 10 ** 400), "9.600e-399"),
        (rational(99995, 10 ** 405), "1.000e-400"),  # rounds up a decade
        (rational(10 ** 400), "inf"),
    ])
    def test_scientific(self, value, text):
        # `.3e` of the float image, except below the float range, where the
        # exact magnitude is kept
        assert scientific(value) == text
