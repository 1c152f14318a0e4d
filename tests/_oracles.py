"""Independent sympy-based oracles for the test suite.

Everything here recomputes expected values through sympy, by routes that
share no code with the package under test: complex-number expansion for
the primitive family, symbolic differentiation for eikonal residuals,
and sympy.Matrix arithmetic for pencil identities.  Tests freeze small
oracle outputs as literals and call the oracle live for large ones.
"""

from __future__ import annotations

from fractions import Fraction

import sympy


def symbols(n: int):
    return sympy.symbols(f"x0:{n}", real=True)


def to_sympy(poly) -> sympy.Expr:
    """Convert a package Polynomial to a sympy expression."""
    xs = symbols(poly.dimension)
    expr = sympy.Integer(0)
    for mono, coeff in poly.terms.items():
        term = sympy.Rational(int(coeff.numerator), int(coeff.denominator))
        for x, e in zip(xs, mono):
            if e:
                term *= x**e
        expr += term
    return sympy.expand(expr)


def from_sympy(expr, n: int):
    """Convert a sympy polynomial expression to {exponents: nonzero Fraction}.

    sympy lists the zero polynomial as one zero term; it converts to {}.
    """
    xs = symbols(n)
    poly = sympy.Poly(sympy.expand(expr), *xs)
    out = {}
    for mono, coeff in poly.terms():
        if coeff:
            out[tuple(int(e) for e in mono)] = Fraction(int(coeff.p), int(coeff.q))
    return out


def primitive_expected(g: int, n: int, dimh: int):
    """h_{g,H} = Re((|xi| + i |eta|)^g) expanded by sympy's complex algebra.

    Independent route: sympy expands the complex power and takes the real
    part; the package builds the binomial sum directly.
    """
    xs = symbols(n)
    eta_sq = sum(x**2 for x in xs[dimh:]) if dimh < n else sympy.Integer(0)
    if g % 2 == 0:
        a_sq = sympy.Symbol("a", nonnegative=True)
        b_sq = sympy.Symbol("b", nonnegative=True)
        expr = sympy.re(sympy.expand((sympy.sqrt(a_sq) + sympy.I * sympy.sqrt(b_sq)) ** g))
        xi_sq = sum(x**2 for x in xs[:dimh]) if dimh > 0 else sympy.Integer(0)
        expr = expr.subs({a_sq: xi_sq, b_sq: eta_sq})
    else:
        if dimh != 1:
            raise ValueError("odd degree requires a one-dimensional distinguished subspace")
        b_sq = sympy.Symbol("b", nonnegative=True)
        expr = sympy.re(sympy.expand((xs[0] + sympy.I * sympy.sqrt(b_sq)) ** g))
        expr = expr.subs(b_sq, eta_sq)
    return from_sympy(sympy.expand(expr), n)


def eikonal_residual(poly, g: int) -> sympy.Expr:
    """|grad f|^2 - g^2 |x|^(2g-2), fully expanded, via sympy only."""
    xs = symbols(poly.dimension)
    f = to_sympy(poly)
    grad_sq = sum(sympy.diff(f, x) ** 2 for x in xs)
    radial = sum(x**2 for x in xs) ** (g - 1)
    return sympy.expand(grad_sq - g * g * radial)


def laplacian_sympy(poly) -> sympy.Expr:
    xs = symbols(poly.dimension)
    f = to_sympy(poly)
    return sympy.expand(sum(sympy.diff(f, x, 2) for x in xs))


def to_sympy_matrix(m) -> sympy.Matrix:
    return sympy.Matrix(
        [
            [sympy.Rational(int(v.numerator), int(v.denominator)) for v in row]
            for row in m.entries
        ]
    )


def pencil_identity_residual(matrices) -> sympy.Matrix:
    """A_eta^3 - |eta|^2 A_eta as a symbolic matrix in eta, via sympy."""
    q = len(matrices)
    etas = sympy.symbols(f"e0:{q}", real=True)
    mats = [to_sympy_matrix(m) for m in matrices]
    p = mats[0].shape[0] if mats else 0
    a_eta = sympy.zeros(p, p)
    for e, m in zip(etas, mats):
        a_eta += e * m
    eta_sq = sum(e**2 for e in etas)
    return sympy.expand(a_eta * a_eta * a_eta - eta_sq * a_eta)


def is_constant_times_square(poly) -> bool:
    """Whether a nonzero polynomial is c G^2 for a rational c and a rational G,
    by sympy's factorization over the rationals: every multiplicity even."""
    xs = symbols(poly.dimension)
    _, factors = sympy.factor_list(to_sympy(poly), *xs)
    return all(multiplicity % 2 == 0 for _, multiplicity in factors)
