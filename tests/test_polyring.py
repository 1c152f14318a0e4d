"""Ring, calculus and serialization tests for the exact polynomial core."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles as oracles
from eikq import polyring
from eikq.polyring import (
    Polynomial,
    PolyTextError,
    block_radial,
    evaluate,
    gradient_inner,
    gradient_norm_sq,
    homogeneous_split,
    laplacian,
    packed_laplacian,
    partial_derivative,
    poly_from_text,
    poly_mul,
    poly_square,
    poly_to_text,
    radial_power,
    rational,
    rational_from_float,
    substitute_linear,
)
from eikq.matrices import RationalMatrix, random_rational_orthogonal

TOTAL_SEEDS = 25


def random_poly(rng: random.Random, n: int, max_exp: int = 3, n_terms: int = 5) -> Polynomial:
    terms = {}
    for _ in range(n_terms):
        mono = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Polynomial(n, terms)


# -- scalars -------------------------------------------------------------------


def test_rational_parses_strings_and_pairs():
    assert rational("3/4") == Fraction(3, 4)
    assert rational("-7") == -7
    assert rational(3, 6) == Fraction(1, 2)
    assert str(rational(-8, 6)) == "-4/3"


def test_rational_rejects_floats():
    with pytest.raises(TypeError):
        rational(0.5)
    with pytest.raises(TypeError):
        rational(1, 0.1)
    with pytest.raises(TypeError):
        rational(0.5, 2)


def test_rational_from_float_is_exact():
    value = rational_from_float(0.1)
    assert value == Fraction(0.1)
    assert float(value) == 0.1


# -- construction and structure --------------------------------------------------


def test_constructor_validation_order():
    # length, then exponents, then the coefficient; a float is refused even at 0.0
    with pytest.raises(ValueError, match="does not have length 2"):
        Polynomial(2, {(1, -1, 0): 0.5})
    for mono in ((1, -1), (1, 1.0), (True, "2")):
        with pytest.raises(ValueError, match="exponents must be nonnegative integers"):
            Polynomial(2, {mono: 0.5})
    for coeff in (0.0, 0.5):
        with pytest.raises(TypeError, match="float coefficient"):
            Polynomial(2, {(1, 0): coeff})


def test_zero_coefficients_are_dropped():
    f = Polynomial(2, {(1, 0): 1, (0, 1): 0})
    assert len(f.terms) == 1
    assert f.coefficient((0, 1)) == 0


def test_duplicate_monomials_merge_in_constructor():
    f = Polynomial(1, {(2,): 1}) + Polynomial(1, {(2,): -1})
    assert f.is_zero


def test_validation_errors():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 0): 1}) + Polynomial(3, {(1, 0, 0): 1})


def test_polynomial_is_immutable():
    f = Polynomial.variable(2, 0)
    with pytest.raises(AttributeError):
        f.dimension = 5


def test_degree_and_homogeneity():
    f = Polynomial(2, {(4, 0): 1, (2, 2): -6, (0, 4): 1})
    assert f.total_degree() == 4
    assert f.is_homogeneous(4)
    assert not f.is_homogeneous(3)
    assert Polynomial.zero(3).total_degree() is None
    assert Polynomial.zero(3).is_homogeneous(7)
    mixed = Polynomial(2, {(1, 0): 1, (0, 2): 1})
    assert not mixed.is_homogeneous()


def test_grlex_descending_order():
    f = Polynomial(2, {(0, 1): 1, (2, 0): 1, (1, 1): 1, (1, 0): 1})
    order = [m for m, _ in f.sorted_terms()]
    assert order == [(2, 0), (1, 1), (1, 0), (0, 1)]


# -- ring axioms ----------------------------------------------------------------


def test_ring_axioms_on_random_polynomials():
    for seed in range(TOTAL_SEEDS):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        a, b, c = (random_poly(rng, n) for _ in range(3))
        assert a + b == b + a
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
        assert poly_mul(a, b + c) == poly_mul(a, b) + poly_mul(a, c)
        assert a - a == Polynomial.zero(n)
        assert poly_square(a) == poly_mul(a, a)


def test_pow_matches_repeated_multiplication():
    rng = random.Random(11)
    f = random_poly(rng, 3, max_exp=2, n_terms=4)
    assert f**0 == Polynomial.constant(3, 1)
    assert f**3 == f * f * f
    with pytest.raises(ValueError):
        f ** (-1)


@given(
    exps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=6),
    coeffs=st.lists(st.fractions(min_value=-5, max_value=5), min_size=6, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_multiplication_degree_bound(exps, coeffs):
    f = Polynomial(2, dict(zip(exps, coeffs)))
    g = Polynomial(2, {(1, 0): 1, (0, 1): -2})
    product = f * g
    if f.is_zero:
        assert product.is_zero
    else:
        assert product.total_degree() == f.total_degree() + 1


# -- calculus --------------------------------------------------------------------


def test_partial_derivative_examples():
    f = Polynomial(2, {(3, 0): 1})
    assert partial_derivative(f, 1).is_zero
    assert partial_derivative(f, 0) == Polynomial(2, {(2, 0): 3})
    with pytest.raises(ValueError):
        partial_derivative(f, 2)


def test_leibniz_rule_on_random_polynomials():
    for seed in range(TOTAL_SEEDS):
        rng = random.Random(100 + seed)
        n = rng.randint(1, 3)
        a, b = random_poly(rng, n), random_poly(rng, n)
        i = rng.randrange(n)
        lhs = partial_derivative(a * b, i)
        rhs = partial_derivative(a, i) * b + a * partial_derivative(b, i)
        assert lhs == rhs


def test_euler_identity_for_homogeneous_polynomials():
    # <x, grad f> = deg(f) * f
    for seed in range(TOTAL_SEEDS):
        rng = random.Random(200 + seed)
        n = rng.randint(1, 4)
        degree = rng.randint(1, 5)
        terms = {}
        for _ in range(4):
            cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
            mono = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
            terms[mono] = Fraction(rng.randint(-5, 5))
        f = Polynomial(n, terms)
        euler = Polynomial.zero(n)
        for i in range(n):
            euler = euler + Polynomial.variable(n, i) * partial_derivative(f, i)
        assert euler == degree * f


def test_gradient_norm_sq_matches_sympy_oracle():
    for seed in range(8):
        rng = random.Random(300 + seed)
        f = random_poly(rng, 3, max_exp=2, n_terms=4)
        ours = gradient_norm_sq(f)
        theirs = oracles.from_sympy(
            sum(e**2 for e in (oracles.to_sympy(f).diff(x) for x in oracles.symbols(3))), 3
        )
        assert {m: Fraction(int(c.numerator), int(c.denominator)) for m, c in ours.terms.items()} == theirs


def test_laplacian_examples():
    # |x|^4 in dimension n has Laplacian (4n+8)|x|^2
    for n in range(1, 6):
        f = radial_power(n, 2)
        assert laplacian(f) == (4 * n + 8) * radial_power(n, 1)
    cubic = Polynomial(3, {(3, 0, 0): 1, (1, 2, 0): -3, (1, 0, 2): -3})
    assert laplacian(cubic) == Polynomial(3, {(1, 0, 0): -6})


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(polys(n), polys(n))))
@settings(max_examples=60, deadline=None)
def test_laplacian_matches_sympy_oracle(pair):
    # the Laplacian of (x0^2 - x1^2) h holds 2h - 2h, so terms cancel in its sum
    r, h = pair
    n = r.dimension
    x0, x1 = Polynomial.variable(n, 0), Polynomial.variable(n, 1)
    f = (x0 * x0 - x1 * x1) * h + r
    theirs = oracles.from_sympy(oracles.laplacian_sympy(f), n)
    ours = laplacian(f)
    assert all(type(c) is Fraction and c != 0 for c in ours.terms.values())
    assert ours.terms == theirs


def test_gradient_of_radial_power():
    # grad |x|^(2m) = 2m |x|^(2m-2) x
    n, m = 4, 3
    f = radial_power(n, m)
    for i in range(n):
        expected = 2 * m * radial_power(n, m - 1) * Polynomial.variable(n, i)
        assert partial_derivative(f, i) == expected


def test_radial_power_frozen_expansion():
    # (x0^2 + x1^2)^3: binomial coefficients 1, 3, 3, 1
    f = radial_power(2, 3)
    assert dict(f.terms) == {
        (6, 0): 1,
        (4, 2): 3,
        (2, 4): 3,
        (0, 6): 1,
    }


# -- substitution and evaluation --------------------------------------------------


def test_substitute_identity_and_permutation():
    f = Polynomial(3, {(2, 1, 0): 5, (0, 0, 3): -1})
    assert substitute_linear(f, RationalMatrix.identity(3)) == f
    # cyclic permutation x0 <- x1, x1 <- x2, x2 <- x0
    perm = RationalMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    g = substitute_linear(f, perm)
    assert g == Polynomial(3, {(0, 2, 1): 5, (3, 0, 0): -1})


def test_substitution_composes():
    rng = random.Random(5)
    f = random_poly(rng, 3, max_exp=2, n_terms=4)
    a = random_rational_orthogonal(3, 1)
    b = random_rational_orthogonal(3, 2)
    assert substitute_linear(f, a @ b) == substitute_linear(substitute_linear(f, a), b)


def test_orthogonal_invariance_of_gradient_and_laplacian():
    # |grad (f o U)|^2 = |grad f|^2 o U and the same for the Laplacian
    for seed in range(6):
        rng = random.Random(400 + seed)
        n = rng.randint(2, 4)
        f = random_poly(rng, n, max_exp=2, n_terms=4)
        u = random_rational_orthogonal(n, seed)
        assert gradient_norm_sq(substitute_linear(f, u)) == substitute_linear(
            gradient_norm_sq(f), u
        )
        assert laplacian(substitute_linear(f, u)) == substitute_linear(laplacian(f), u)


def test_substitution_agrees_with_evaluation():
    rng = random.Random(7)
    f = random_poly(rng, 3, max_exp=3, n_terms=5)
    m = RationalMatrix([[1, 2, 0], [0, 1, -1], [3, 0, 1]])
    point = [Fraction(1, 2), Fraction(-2, 3), Fraction(3)]
    assert substitute_linear(f, m).evaluate(point) == f.evaluate(m.matvec(point))


def expand_reference(f: Polynomial, rows) -> dict:
    """f(Mx) as {exponents: Fraction}, each monomial expanded on its own."""
    n = f.dimension
    out: dict = {}
    for mono, coeff in f.terms.items():
        piece = {(0,) * n: coeff}
        for i, e in enumerate(mono):
            for _ in range(e):
                grown: dict = {}
                for m, c in piece.items():
                    for j, a in enumerate(rows[i]):
                        if a:
                            k = m[:j] + (m[j] + 1,) + m[j + 1:]
                            grown[k] = grown.get(k, 0) + c * a
                piece = grown
        for m, c in piece.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def assert_canonical(g: Polynomial, expected: dict) -> Polynomial:
    """g equals the reference {exponents: Fraction}, in canonical order, as Fractions."""
    assert g.terms == expected
    assert list(g.terms) == [m for m, _ in g.sorted_terms()]
    assert all(type(c) is Fraction and c != 0 for c in g.terms.values())
    return g


def assert_substitution_correct(f: Polynomial, matrix) -> Polynomial:
    """substitute_linear against the reference, in canonical order, as Fractions."""
    g = substitute_linear(f, matrix)
    assert g.dimension == f.dimension
    rows = matrix.entries if isinstance(matrix, RationalMatrix) else matrix
    return assert_canonical(g, expand_reference(f, rows))


_SMALL_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=12)


def polys(n: int, coefficients=_SMALL_RATIONALS):
    # degrees are mixed, so most drawn polynomials are not homogeneous
    monos = st.tuples(*[st.integers(0, 3)] * n)
    return st.dictionaries(monos, coefficients, max_size=6).map(
        lambda terms: Polynomial(n, terms)
    )


@st.composite
def polys_and_matrices(draw, min_n: int = 0, max_n: int = 4):
    n = draw(st.integers(min_n, max_n))
    f = draw(polys(n))
    entry = st.one_of(st.integers(-1, 1), _SMALL_RATIONALS)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return f, rows


@given(polys_and_matrices())
@settings(max_examples=80, deadline=None)
def test_substitution_matches_term_by_term_expansion(case):
    f, rows = case
    assert_substitution_correct(f, rows)
    assert_substitution_correct(f, RationalMatrix(rows))


@given(polys_and_matrices(min_n=2), st.data())
@settings(max_examples=40, deadline=None)
def test_substitution_cancels_exactly(case, data):
    # with rows 0 and 1 equal, x0 and x1 map to the same form, so
    # (x0 - x1) h contributes nothing and f(Mx) = r(Mx) term for term
    r, rows = case
    n = r.dimension
    rows[1] = list(rows[0])
    monos = st.tuples(*[st.integers(0, 2)] * n)
    h = Polynomial(n, data.draw(st.dictionaries(monos, _SMALL_RATIONALS, min_size=1, max_size=4)))
    f = (Polynomial.variable(n, 0) - Polynomial.variable(n, 1)) * h + r
    assert assert_substitution_correct(f, rows) == substitute_linear(r, rows)


def test_substitution_small_and_degenerate_cases():
    assert substitute_linear(Polynomial.zero(3), RationalMatrix.identity(3)) == Polynomial.zero(3)
    assert substitute_linear(Polynomial.zero(0), []) == Polynomial.zero(0)
    assert assert_substitution_correct(Polynomial.constant(0, "-3/7"), []) == (
        Polynomial.constant(0, "-3/7")
    )
    # n = 1: f(x) = x^3 - 2x + 1/2 at x -> -2/3 x
    f = Polynomial(1, {(3,): 1, (1,): -2, (0,): Fraction(1, 2)})
    g = assert_substitution_correct(f, [[Fraction(-2, 3)]])
    assert g == Polynomial(1, {(3,): Fraction(-8, 27), (1,): Fraction(4, 3), (0,): Fraction(1, 2)})
    # nested ints, with cancellation: x0^2 - x1^2 at (x0 + x1, x0 - x1) is 4 x0 x1
    g = assert_substitution_correct(Polynomial(2, {(2, 0): 1, (0, 2): -1}), [[1, 1], [1, -1]])
    assert g == Polynomial(2, {(1, 1): 4})
    # a singular matrix sends everything onto the first coordinate
    f = Polynomial(3, {(1, 1, 0): 2, (0, 0, 2): -1, (1, 0, 0): 5})
    g = assert_substitution_correct(f, [[1, 0, 0], [2, 0, 0], [3, 0, 0]])
    assert g == Polynomial(3, {(2, 0, 0): -5, (1, 0, 0): 5})
    with pytest.raises(ValueError):
        substitute_linear(f, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        substitute_linear(f, [[1, 0, 0], [0, 1], [0, 0, 1]])


def test_substitution_by_rationalized_float_rotation():
    import numpy as np

    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    u = RationalMatrix.from_float(q)
    f = radial_power(4, 2) + random_poly(random.Random(11), 4, max_exp=2, n_terms=6)
    assert_substitution_correct(f, u)
    # an exact rotation leaves |x|^4 unchanged, every cross term cancelling
    assert assert_substitution_correct(radial_power(4, 2), random_rational_orthogonal(4, 9)) == (
        radial_power(4, 2)
    )


def derivative_reference(f: Polynomial, i: int) -> dict:
    """The partial derivative of f by x_i as {exponents: Fraction}."""
    return {
        m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in f.terms.items() if m[i]
    }


def product_reference(pairs) -> dict:
    """The sum of a * b over pairs of {exponents: Fraction}, term by term in Fractions."""
    out: dict = {}
    for a, b in pairs:
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def assert_products_correct(a: Polynomial, b: Polynomial) -> None:
    """poly_mul, poly_square, gradient_inner and gradient_norm_sq against the reference."""
    fa, fb = a.terms, b.terms
    grad_a = [derivative_reference(a, i) for i in range(a.dimension)]
    grad_b = [derivative_reference(b, i) for i in range(b.dimension)]
    assert_canonical(poly_mul(a, b), product_reference([(fa, fb)]))
    assert_canonical(poly_mul(a, a), product_reference([(fa, fa)]))
    assert_canonical(poly_square(a), product_reference([(fa, fa)]))
    assert_canonical(gradient_inner(a, b), product_reference(zip(grad_a, grad_b)))
    assert_canonical(gradient_norm_sq(a), product_reference(zip(grad_a, grad_a)))


@given(st.integers(0, 4).flatmap(lambda n: st.tuples(polys(n), polys(n))))
@settings(max_examples=80, deadline=None)
def test_products_match_term_by_term_expansion(pair):
    assert_products_correct(*pair)


_WIDE_RATIONALS = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.sampled_from([10 ** 400, -(10 ** 400)])),
    st.sampled_from([1, 2, 3, 4, 7, 12]),
)


@given(st.integers(0, 5).flatmap(lambda n: polys(n, _WIDE_RATIONALS)))
@settings(max_examples=80, deadline=None)
def test_square_branch_matches_general_product(a):
    # b equals a but is another object, so poly_mul and gradient_inner take
    # the general loop over ordered pairs where a with itself takes unordered ones
    b = Polynomial(a.dimension, dict(a.terms))
    assert b is not a and b == a
    for square, general in ((poly_square(a), poly_mul(a, b)),
                            (gradient_norm_sq(a), gradient_inner(a, b))):
        assert square == general
        assert list(square.terms) == list(general.terms)


def laplacian_reference(f: Polynomial) -> dict:
    """The Laplacian of f as {exponents: Fraction}: a double loop over terms and axes."""
    out: dict = {}
    for m, c in f.terms.items():
        for i, e in enumerate(m):
            if e >= 2:
                lowered = m[:i] + (e - 2,) + m[i + 1:]
                out[lowered] = out.get(lowered, 0) + c * e * (e - 1)
    return {m: c for m, c in out.items() if c}


@given(st.integers(0, 5).flatmap(lambda n: polys(n, _WIDE_RATIONALS)), st.integers(1, 4),
       _WIDE_RATIONALS)
@example(Polynomial(2, {(2, 0): 1, (0, 2): -1}), 1, Fraction(0))  # 2 - 2: the only term cancels
@example(Polynomial(3, {(2, 1, 0): Fraction(1, 6), (0, 3, 0): Fraction(-3, 4), (1, 0, 0): 5}),
         2, Fraction(7, 12))
@example(radial_power(3, 2), 1, Fraction(20))  # Laplacian 20 |x|^2 minus itself
@settings(max_examples=80, deadline=None)
def test_packed_laplacian_matches_fraction_reference(f, extra, constant):
    # keys drop by 2 key(x_i) and numerators take e (e - 1); the terms come
    # out grlex-descending, one Fraction each
    assert_canonical(laplacian(f), laplacian_reference(f))
    packed = packed_laplacian(f)
    assert packed.max_abs_coefficient() == laplacian(f).max_abs_coefficient()
    assert packed.is_zero == (not laplacian_reference(f))
    # as Muenzner's test packs it at degree g: a base above deg f + 1, less
    # constant |x|^(g - 2)
    degree = (f.total_degree() or 0) + extra
    wide = packed_laplacian(f, degree)
    assert wide.base == degree + 1
    assert_canonical(wide.unpack(), laplacian_reference(f))
    assert wide.is_zero == packed.is_zero
    power = max(degree - 2, 0) // 2
    expected = laplacian(f) - constant * radial_power(f.dimension, power)
    remainder = wide.minus_radial(constant, power)
    assert remainder.unpack() == expected
    assert remainder.max_abs_coefficient() == expected.max_abs_coefficient()
    assert remainder.is_zero == expected.is_zero


@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    polys(n, _WIDE_RATIONALS), st.integers(1, 3), st.sets(st.integers(0, max(n - 1, 0)), max_size=n),
    st.integers(0, 3),
)))
@example((Polynomial(2, {(3, 0): 1, (0, 3): -1, (1, 2): Fraction(1, 2)}), 1, {0, 1}, 1))
@example((Polynomial.zero(0), 1, set(), 2))
@settings(max_examples=120, deadline=None)
def test_key_rule_round_trip(case):
    # x^a packs to sum_v a_v key(x_v) with key(x_v) = base^n + base^(n-1-v),
    # written out here apart from the module's rule
    f, extra, indices, power = case
    n = f.dimension
    base = max(f.total_degree() or 0, 2 * power) + extra
    assert polyring._variable_keys(n, base) == tuple(base ** n + base ** (n - 1 - v) for v in range(n))
    packed, denom = polyring._pack(f, base)
    assert len(packed) == len(f.terms)
    for (mono, coeff), (key, numerator) in zip(f.terms.items(), packed):
        assert key == sum(a * (base ** n + base ** (n - 1 - v)) for v, a in enumerate(mono))
        assert Fraction(numerator, denom) == coeff
    numerators = dict(packed)
    assert_canonical(polyring._unpack(n, numerators, base, [denom] * base), f.terms)
    kept = polyring.PackedPolynomial(n, numerators, base, denom)
    for mono, coeff in f.terms.items():
        assert kept.coefficient(mono) == coeff
    radial, one = polyring._pack(block_radial(n, indices, power), base)
    assert one == 1
    assert list(polyring._radial_terms(n, base, indices, power)) == radial


def test_products_small_and_degenerate_cases():
    x0, x1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    # exact cancellation: (x0 - x1)(x0 + x1) = x0^2 - x1^2
    assert_products_correct(x0 - x1, x0 + x1)
    assert poly_mul(x0 - x1, x0 + x1) == Polynomial(2, {(2, 0): 1, (0, 2): -1})
    assert gradient_inner(x0 * x1, x0 * x0 - x1 * x1).is_zero
    # mixed degrees and denominators
    f = Polynomial(3, {(2, 1, 0): Fraction(1, 6), (0, 0, 1): Fraction(-3, 4), (0, 0, 0): 5})
    g = Polynomial(3, {(1, 0, 0): Fraction(2, 9), (0, 2, 2): Fraction(7, 10)})
    assert_products_correct(f, g)
    # the zero polynomial, n = 0 and n = 1
    assert_products_correct(f, Polynomial.zero(3))
    assert_products_correct(Polynomial.zero(3), Polynomial.zero(3))
    assert_products_correct(Polynomial.constant(0, "-3/7"), Polynomial.constant(0, "2/5"))
    assert poly_square(Polynomial.constant(0, "-3/7")) == Polynomial.constant(0, "9/49")
    assert_products_correct(Polynomial(1, {(3,): Fraction(1, 2), (0,): 1}), Polynomial(1, {(1,): -2}))
    with pytest.raises(ValueError):
        poly_mul(f, x0)


def test_evaluate_rejects_wrong_length():
    f = Polynomial.variable(2, 0)
    with pytest.raises(ValueError):
        evaluate(f, [1])


# -- homogeneous split -------------------------------------------------------------


def test_homogeneous_split_multidegrees():
    # f = x0^2 x2 + x0 x1 x2 + x1^3 with blocks {0} and {1}; x2 is the rest
    f = Polynomial(3, {(2, 0, 1): 1, (1, 1, 1): 2, (0, 3, 0): 3})
    parts = homogeneous_split(f, [{0}, {1}])
    assert set(parts) == {(2, 0, 1), (1, 1, 1), (0, 3, 0)}
    total = Polynomial.zero(3)
    for piece in parts.values():
        total = total + piece
    assert total == f


def test_homogeneous_split_rejects_overlap():
    f = Polynomial.variable(3, 0)
    with pytest.raises(ValueError):
        homogeneous_split(f, [{0, 1}, {1, 2}])


# -- poly-text format ---------------------------------------------------------------


def test_poly_text_round_trip_is_canonical():
    f = Polynomial(3, {(4, 0, 0): 1, (2, 2, 0): Fraction(-3, 4), (0, 0, 4): 2})
    text = poly_to_text(f)
    lines = text.strip().splitlines()
    assert lines[0] == "n 3"
    assert lines[1] == "4 0 0 1"  # graded-lex descending
    assert lines[2] == "2 2 0 -3/4"
    assert poly_from_text(text) == f
    assert poly_to_text(poly_from_text(text)) == text


def test_poly_text_accepts_any_order_and_merges():
    text = """
    # comment line
    n 2
    0 4 1
    4 0 2   # trailing comment
    4 0 -1
    """
    f = poly_from_text(text)
    assert f == Polynomial(2, {(0, 4): 1, (4, 0): 1})


def test_poly_text_zero_polynomial():
    assert poly_from_text("n 5\n") == Polynomial.zero(5)
    assert poly_to_text(Polynomial.zero(5)) == "n 5\n"


@pytest.mark.parametrize(
    "text, bad_line",
    [
        ("", None),
        ("m 3\n", 1),
        ("n x\n", 1),
        ("n 2\n1 0\n", 2),
        ("n 2\n1 0 0 7\n", 2),
        ("n 2\n1 -2 7\n", 2),
        ("n 2\n1 0 3/0\n", 2),
        ("n 2\n1 0 1.5\n", 2),
    ],
)
def test_poly_text_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(PolyTextError) as excinfo:
        poly_from_text(text)
    assert excinfo.value.line_number == bad_line


@pytest.mark.parametrize(
    "token, value",
    [("3", 3), ("+3", 3), ("-3/4", Fraction(-3, 4)), ("6/4", Fraction(3, 2)),
     ("-0/7", 0), ("007/010", Fraction(7, 10)), ("-" + "9" * 40, -(10 ** 40 - 1))],
)
def test_poly_text_coefficients(token, value):
    f = poly_from_text(f"n 1\n4 {token}\n")
    assert f == Polynomial(1, {(4,): value})
    assert all(type(c) is Fraction for c in f.terms.values())


@pytest.mark.parametrize(
    "token, message",
    [("3/0", "line 2: bad coefficient '3/0', zero denominator"),
     ("1.5", "line 2: bad coefficient '1.5', expected p or p/q"),
     ("3/-4", "line 2: bad coefficient '3/-4', expected p or p/q"),
     ("1e3", "line 2: bad coefficient '1e3', expected p or p/q")],
)
def test_poly_text_coefficient_errors(token, message):
    with pytest.raises(PolyTextError) as excinfo:
        poly_from_text(f"n 1\n4 {token}\n")
    assert str(excinfo.value) == message


def test_poly_text_round_trip_random():
    for seed in range(TOTAL_SEEDS):
        rng = random.Random(500 + seed)
        f = random_poly(rng, rng.randint(1, 5))
        assert poly_from_text(poly_to_text(f)) == f
