"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in n variables is a mapping from exponent tuples to nonzero
rational coefficients.  The exponent tuple (a_0, ..., a_{n-1}) stands for
the monomial x_0^a_0 * ... * x_{n-1}^a_{n-1}; a zero polynomial has an
empty mapping.  All arithmetic is exact: coefficients are rationals in
lowest terms with positive denominator, and no operation in this module
ever touches floating point.  Every sum whose terms may cancel goes through
the one term accumulator ``_add_terms``.

The canonical term order is graded lexicographic, descending: higher
total degree first, ties broken by the lexicographically larger exponent
tuple.  ``poly_to_text`` and ``poly_from_text`` implement the line-based
wire format used by the command line tools (one term per line: n exponent
integers followed by the coefficient as ``p`` or ``p/q``).

The one rational scalar type is ``fractions.Fraction``.  Products,
gradient inner products, ``substitute_linear``, the Laplacian and the
eikonal residual run in Python ints on packed monomials over one common
denominator (``_pack``), with one rational division per output term
(``_unpack``); their terms come out grlex-descending.  Only this module
knows the packed layout, and its one key rule (``_variable_keys``) is
key(x_v) = base^n + base^(n-1-v): x^a packs to sum_v a_v key(x_v), so
multiplying monomials adds keys, and while degrees stay below the base,
packing is injective and key order is grlex order.  A partial derivative
is read off the packed keys, with no rational made, and
``_sum_of_products`` is the one product loop: it squares a packed list by
unordered pairs of terms.  ``_linear_combination`` sums integer weights
times packed lists and packed products over the lcm of their
denominators; radial powers enter it at their multinomial keys
(``_radial_terms``).  A result can stay packed (``PackedPolynomial``):
then a zero test makes no rational and the largest |coefficient| makes
one.  ``radial_square_root`` is the one exact square root on packed keys:
long division in key order, after the content is divided out.  The public
operators of ``Polynomial``, ``partial_derivative`` and the text parser
still make one ``Fraction`` per term.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import combinations_with_replacement
from math import factorial, gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

Monomial = tuple[int, ...]

_RATIONAL_TYPES = (int, Fraction)


def rational(value: int | str | Fraction = 0, denominator: int | None = None) -> Fraction:
    """Coerce ``value`` (over ``denominator``, if given) to a ``Fraction``.

    Accepts integers, strings like ``"3"`` or ``"-3/4"``, and Fractions.
    Floats are rejected in either position: silent binary-float
    contamination is the main way exactness dies, so the conversion must be
    asked for by name (``rational_from_float``).
    """
    if isinstance(value, float) or isinstance(denominator, float):
        raise TypeError("float coefficient; use rational_from_float for exact conversion")
    if denominator is None:
        return Fraction(value)
    return Fraction(value) / Fraction(denominator)


def rational_from_float(value: float) -> Fraction:
    """Exact rational value of a binary float (no rounding)."""
    return Fraction(value)


def grlex_key(monomial: Monomial) -> tuple[int, Monomial]:
    """Sort key for graded lexicographic order (use with reverse=True)."""
    return (sum(monomial), monomial)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients.  Instances are
    treated as immutable; the term mapping must not be mutated by callers.
    """

    __slots__ = ("dimension", "terms")

    def __init__(self, dimension: int, terms: Mapping[Monomial, object] | None = None):
        if dimension < 0:
            raise ValueError("dimension must be nonnegative")
        object.__setattr__(self, "dimension", dimension)
        clean: dict[Monomial, object] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != dimension:
                raise ValueError(f"exponent tuple {mono} does not have length {dimension}")
            for e in mono:
                if not isinstance(e, int) or e < 0:
                    raise ValueError(f"exponents must be nonnegative integers: {mono}")
            c = coeff if type(coeff) is Fraction else rational(coeff)
            if c != 0:
                _add_terms(clean, [(mono, c)])
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, dimension: int) -> "Polynomial":
        return cls(dimension)

    @classmethod
    def constant(cls, dimension: int, value) -> "Polynomial":
        return cls(dimension, {(0,) * dimension: rational(value)})

    @classmethod
    def variable(cls, dimension: int, index: int) -> "Polynomial":
        """The polynomial x_index (0-based)."""
        if not 0 <= index < dimension:
            raise ValueError(f"variable index {index} out of range for dimension {dimension}")
        mono = tuple(1 if j == index else 0 for j in range(dimension))
        return cls(dimension, {mono: 1})

    @classmethod
    def monomial(cls, dimension: int, exponents: Sequence[int], coefficient=1) -> "Polynomial":
        return cls(dimension, {tuple(exponents): coefficient})

    # -- structure ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """True when every term has the same total degree (any degree if unset).

        The zero polynomial is homogeneous of every degree.
        """
        if not self.terms:
            return True
        degrees = {sum(m) for m in self.terms}
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def coefficient(self, monomial: Sequence[int]):
        return self.terms.get(tuple(monomial), Fraction(0))

    def sorted_terms(self) -> list[tuple[Monomial, object]]:
        """Terms in canonical graded-lex descending order."""
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]), reverse=True)

    def max_abs_coefficient(self):
        """Largest coefficient magnitude as an exact rational (0 for zero)."""
        if not self.terms:
            return Fraction(0)
        return max(abs(c) for c in self.terms.values())

    # -- arithmetic -----------------------------------------------------------

    def _require_same_ring(self, other: "Polynomial") -> None:
        if self.dimension != other.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_ring(other)
            return _raw(self.dimension, _add_terms(dict(self.terms), other.terms.items()))
        return self + Polynomial.constant(self.dimension, other)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return _raw(self.dimension, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self + (-other)
        return self + Polynomial.constant(self.dimension, -rational(other))

    def __rsub__(self, other):
        return (-self) + Polynomial.constant(self.dimension, other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return poly_mul(self, other)
        c = rational(other)
        if c == 0:
            return Polynomial.zero(self.dimension)
        return _raw(self.dimension, {m: v * c for m, v in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.constant(self.dimension, 1)
        base = self
        e = exponent
        while e:  # binary powering
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.dimension == other.dimension and self.terms == other.terms
        if isinstance(other, _RATIONAL_TYPES):
            return self == Polynomial.constant(self.dimension, other)
        return NotImplemented

    __hash__ = None

    def evaluate(self, point: Sequence):
        return evaluate(self, point)

    def __repr__(self):
        if len(self.terms) <= 4:
            body = " + ".join(
                f"{c}*x^{list(m)}" for m, c in self.sorted_terms()
            ) or "0"
            return f"Polynomial(n={self.dimension}: {body})"
        return f"Polynomial(n={self.dimension}, terms={len(self.terms)})"


def _raw(dimension: int, terms: dict) -> Polynomial:
    """Internal constructor bypassing validation; terms must be clean."""
    poly = Polynomial.__new__(Polynomial)
    object.__setattr__(poly, "dimension", dimension)
    object.__setattr__(poly, "terms", terms)
    return poly


def _add_terms(terms: dict, items: Iterable[tuple[Monomial, object]]) -> dict:
    """Add each (monomial, nonzero coefficient) of ``items`` into ``terms``.

    A new monomial takes its coefficient as it is; a sum of 0 is dropped.
    """
    for mono, coeff in items:
        acc = terms.get(mono)
        if acc is None:
            terms[mono] = coeff
        else:
            acc = acc + coeff
            if acc:
                terms[mono] = acc
            else:
                del terms[mono]
    return terms


# -- ring operations ----------------------------------------------------------


@cache
def _variable_keys(n: int, base: int) -> tuple[int, ...]:
    """(key(x_0), .., key(x_{n-1})) by the key rule of the module docstring."""
    return tuple(base**n + base ** (n - 1 - v) for v in range(n))


def _pack(f: Polynomial, base: int) -> tuple[list[tuple[int, int]], int]:
    """(key, integer numerator) per term of f, in its order, and the lcm of its denominators."""
    denom = lcm(*(c.denominator for c in f.terms.values()))
    keys = _variable_keys(f.dimension, base)
    return [
        (sum(map(mul, mono, keys)), coeff.numerator * (denom // coeff.denominator))
        for mono, coeff in f.terms.items()
    ], denom


def _unpack(n: int, packed: Mapping[int, int], base: int, dividers: Sequence[int]) -> Polynomial:
    """The polynomial of ``_pack``'s packed terms, in grlex-descending order.

    The numerator at a key of degree d is divided by ``dividers[d]``, one
    rational division per output term; zero numerators are dropped.
    """
    terms: dict[Monomial, object] = {}
    for key in sorted(packed, reverse=True):
        coeff = packed[key]
        if coeff:
            exponents = []
            for _ in range(n):
                key, e = divmod(key, base)
                exponents.append(e)
            terms[tuple(reversed(exponents))] = Fraction(coeff, dividers[key])
    return _raw(n, terms)


class PackedPolynomial(NamedTuple):
    """A polynomial left packed: integer numerators at ``_pack``'s keys over one denominator.

    The zero test reads the integers and makes no rational; the largest
    |coefficient| is one rational, max |numerator| / denominator; ``unpack``
    makes one per term, grlex-descending.  The base exceeds every degree.
    """

    dimension: int
    numerators: Mapping[int, int]
    base: int
    denominator: int

    @property
    def is_zero(self) -> bool:
        return not any(self.numerators.values())

    def max_abs_coefficient(self) -> Fraction:
        """Largest coefficient magnitude as an exact rational (0 for zero)."""
        return Fraction(max(map(abs, self.numerators.values()), default=0), self.denominator)

    def coefficient(self, monomial: Sequence[int]) -> Fraction:
        """The coefficient of a monomial of degree below the base, one rational."""
        key = sum(map(mul, monomial, _variable_keys(self.dimension, self.base)))
        return Fraction(self.numerators.get(key, 0), self.denominator)

    def minus_radial(self, constant: Fraction, power: int) -> "PackedPolynomial":
        """self - constant |x|^(2 power), one ``_linear_combination``.

        The base must exceed 2 power.  A zero constant returns self.
        """
        if not constant:
            return self
        radial = _radial_terms(self.dimension, self.base, range(self.dimension), power)
        return _linear_combination(self.dimension, self.base, [
            (1, self.denominator, [(self.numerators.items(), None)]),
            (-constant.numerator, constant.denominator, [(radial, None)]),
        ])

    def unpack(self) -> Polynomial:
        return _unpack(self.dimension, self.numerators, self.base, [self.denominator] * self.base)


def _radial_terms(n: int, base: int, indices: Iterable[int], power: int) -> Iterator[tuple[int, int]]:
    """(packed key, multinomial coefficient) per term of (sum of x_i^2, i in indices)^power.

    Each key is a running sum of the keys of x_i^2 over a multiset of
    ``_multinomials``, with no monomial made; the base must exceed 2 power.
    """
    steps = [2 * key for key in _variable_keys(n, base)]
    for chosen, coeff in _multinomials(indices, power):
        key = 0
        for i in chosen:
            key += steps[i]
        yield key, coeff


def _packed_partials(
    packed: Iterable[tuple[int, int]], n: int, base: int, indices: Sequence[int]
) -> list[list[tuple[int, int]]]:
    """The packed partials by each x_i, i in ``indices``, of packed (key, numerator) terms.

    The term with exponent a_i, the key's base-``base`` digit at
    base^(n-1-i), has the partial by x_i packed to (key - key(x_i),
    numerator * a_i): read off the packed keys, with no monomial or
    rational made.  Zero numerators are skipped.
    """
    packed = list(packed)
    keys = _variable_keys(n, base)
    grad = []
    for i in indices:
        step, place = keys[i], base ** (n - 1 - i)
        grad.append([(key - step, c * e) for key, c in packed if c and (e := key // place % base)])
    return grad


def _packed_gradient(f: Polynomial, base: int) -> tuple[list[list[tuple[int, int]]], int]:
    """The packed partials of f by every variable, and ``_pack``'s denominator."""
    packed, denom = _pack(f, base)
    return _packed_partials(packed, f.dimension, base, range(f.dimension)), denom


def _sum_of_products(pairs: Iterable[tuple], out: dict[int, int], scale: int = 1) -> None:
    """Add scale times each a * b of ``pairs`` into ``out``: the one product loop, in Python ints.

    a and b are packed (key, numerator) lists: keys add and numerators
    multiply.  A pair (a, None) adds a itself.  A list paired with itself
    is squared by unordered pairs, c_u^2 at 2 k_u and 2 c_u c_v at
    k_u + k_v for u < v: half the products of the general loop.
    """
    for pa, pb in pairs:
        if pb is None:
            for k1, c1 in pa:
                out[k1] += scale * c1
        elif pa is pb:
            for u, (k1, c1) in enumerate(pa, 1):
                s1 = scale * c1
                out[k1 + k1] += s1 * c1
                s1 *= 2
                for k2, c2 in pa[u:]:
                    out[k1 + k2] += s1 * c2
        else:
            for k1, c1 in pa:
                if scale != 1:  # substitute_linear's big c1 times 1 is still a copy
                    c1 *= scale
                for k2, c2 in pb:
                    out[k1 + k2] += c1 * c2


def _squares(grad: list) -> list:
    """The pairs of |grad|^2 for ``_sum_of_products``, each by unordered pairs."""
    return [(d, d) for d in grad]


def _linear_combination(n: int, base: int, parts: Iterable[tuple]) -> PackedPolynomial:
    """sum of weight / denominator * (sum of a * b over pairs), left packed.

    Each part is (integer weight, positive denominator, pairs), and the
    pairs are packed lists for ``_sum_of_products``: (a, b) for a product,
    (a, None) for a itself.  The numerators of a part are over its
    denominator; the sum is over the lcm L of the denominators, so a part
    is scaled by weight * L / denominator once per outer term of the
    product loop.  The base must exceed every degree of the sum.
    """
    parts = list(parts)
    denom = lcm(*(d for _, d, _ in parts))
    out: dict[int, int] = defaultdict(int)
    for weight, d, pairs in parts:
        if weight:
            _sum_of_products(pairs, out, weight * (denom // d))
    return PackedPolynomial(n, out, base, denom)


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Exact product of two polynomials in the same ring."""
    a._require_same_ring(b)
    base = (a.total_degree() or 0) + (b.total_degree() or 0) + 1
    pa, da = _pack(a, base)
    pb, db = (pa, da) if b is a else _pack(b, base)
    return _linear_combination(a.dimension, base, [(1, da * db, [(pa, pb)])]).unpack()


def poly_square(a: Polynomial) -> Polynomial:
    """a*a, by unordered pairs of terms."""
    return poly_mul(a, a)


def partial_derivative(f: Polynomial, index: int) -> Polynomial:
    """Exact partial derivative with respect to x_index (0-based)."""
    if not 0 <= index < f.dimension:
        raise ValueError(f"variable index {index} out of range for dimension {f.dimension}")
    out: dict[Monomial, object] = {}
    for mono, coeff in f.terms.items():
        e = mono[index]
        if e:
            # lowering a fixed index is injective, so no accumulation needed
            out[mono[:index] + (e - 1,) + mono[index + 1:]] = coeff * e
    return _raw(f.dimension, out)


def gradient_norm_sq(f: Polynomial) -> Polynomial:
    """|grad f|^2 as an exact polynomial, each square by unordered pairs."""
    return gradient_inner(f, f)


def gradient_inner(a: Polynomial, b: Polynomial) -> Polynomial:
    """<grad a, grad b>.

    The partials are read off the packed keys of a and b and summed by the
    one product loop; with b a itself, each square is by unordered pairs.
    """
    a._require_same_ring(b)
    deg_a, deg_b = a.total_degree() or 0, b.total_degree() or 0
    base = max(deg_a + deg_b - 2, deg_a, deg_b) + 1
    ga, da = _packed_gradient(a, base)
    gb, db = (ga, da) if b is a else _packed_gradient(b, base)
    return _linear_combination(a.dimension, base, [(1, da * db, zip(ga, gb))]).unpack()


def packed_eikonal_residual(f: Polynomial, g: int) -> PackedPolynomial:
    """|grad f|^2 - g^2 |x|^(2g-2), in one packed pass of Python ints, left packed.

    f is packed once over its common denominator D, each partial is read
    off the packed keys, and one ``_linear_combination`` sums the squares
    over unordered pairs of terms and takes g^2 times |x|^(2g-2) off at its
    ``_radial_terms`` keys.  The base, max(2 deg f - 2, 2g - 2, deg f) + 1,
    keeps the packing injective for any f (zero, constant, linear, or of
    degree other than g).  The numerators are over D^2.
    """
    n = f.dimension
    deg = f.total_degree() or 0
    base = max(2 * deg - 2, 2 * g - 2, deg) + 1
    grad, denom = _packed_gradient(f, base)
    return _linear_combination(n, base, [
        (1, denom * denom, _squares(grad)),
        (-g * g, 1, [(_radial_terms(n, base, range(n), g - 1), None)]),
    ])


def extend_dimension(f: Polynomial, new_dimension: int) -> Polynomial:
    """Embed f into a larger ring by appending trailing variables."""
    if new_dimension < f.dimension:
        raise ValueError("new dimension is smaller than the current one")
    pad = (0,) * (new_dimension - f.dimension)
    return _raw(new_dimension, {mono + pad: c for mono, c in f.terms.items()})


def packed_laplacian(f: Polynomial, degree: int = 0) -> PackedPolynomial:
    """Sum of second partials, in Python ints on packed keys, left packed.

    f is packed once at base max(deg f, degree) + 1, so that monomials up
    to `degree` pack as well (``PackedPolynomial.minus_radial``).  The term
    c x^a, packed to (key, numerator), gives at each i with a_i >= 2 the
    key - 2 key(x_i) with numerator * a_i (a_i - 1).
    """
    n = f.dimension
    base = max(f.total_degree() or 0, degree) + 1
    packed, denom = _pack(f, base)
    steps = [2 * key for key in _variable_keys(n, base)]
    out: dict[int, int] = defaultdict(int)
    for mono, (key, c) in zip(f.terms, packed):
        for e, step in zip(mono, steps):
            if e >= 2:
                out[key - step] += c * (e * (e - 1))
    return PackedPolynomial(n, out, base, denom)


def laplacian(f: Polynomial) -> Polynomial:
    """Sum of second partials, exactly: one rational per output term, grlex-descending."""
    return packed_laplacian(f).unpack()


def radial_square_root(f: Polynomial, sign: int) -> tuple[Fraction, Polynomial] | None:
    """(lam, G) with sign f + |x|^g = lam G^2, for f of even degree g; else None.

    G is a form of degree g/2 with coprime integer coefficients and a
    positive leading (largest-key) term, which makes lam and G unique.  In
    Python ints on packed keys: one ``_linear_combination`` adds |x|^g to
    sign f at its ``_radial_terms`` keys over f's common denominator, and
    the content of the numerators, signed like the leading one, goes into
    lam.  G is then found by long division in key order, which is grlex
    order, so each leading term of the remainder is a product with lead(G):
    lead(G) is the square root of the leading term, each next term t is the
    remainder's leading term over 2 lead(G), and 2 G t + t^2 is taken off,
    G the terms found so far.  None at the first leading term that is not a
    square, a quotient that does not divide, or a quotient key that is not
    a monomial of degree g/2; also for a zero sum.  The keys of G are
    distinct monomial keys that fall, so the division ends.
    """
    n, degree = f.dimension, f.total_degree() or 0
    if degree % 2:
        return None
    base = degree + 1
    packed, denom = _pack(f, base)
    total = _linear_combination(n, base, [
        (sign, denom, [(packed, None)]),
        (1, 1, [(_radial_terms(n, base, range(n), degree // 2), None)]),
    ])
    remainder = {key: c for key, c in total.numerators.items() if c}
    if not remainder:
        return None
    content = gcd(*remainder.values())
    if remainder[max(remainder)] < 0:
        content = -content
    remainder = {key: c // content for key, c in remainder.items()}
    keys = _variable_keys(n, base)
    monomials = {sum(chosen) for chosen in combinations_with_replacement(keys, degree // 2)}
    heap = [-key for key in remainder]
    heapify(heap)
    root: list[tuple[int, int]] = []
    while heap:
        key = -heappop(heap)
        c = remainder[key]
        if not c:
            continue
        if root:  # c x^key = 2 lead(G) t
            k, (r, rest) = key - root[0][0], divmod(c, 2 * root[0][1])
        else:  # c x^key = lead(G)^2, and c > 0
            (k, rest), r = divmod(key, 2), isqrt(c)
            rest = rest or r * r != c
        if rest or k not in monomials:
            return None
        # take off 2 G t + t^2: its leading product cancels c x^key, and every
        # other one lies below key, so no key is met again once passed
        for product, value in [(k + other, 2 * r * v) for other, v in root] + [(2 * k, r * r)]:
            if product not in remainder:
                remainder[product] = 0
                heappush(heap, -product)
            remainder[product] -= value
        root.append((k, r))
    return Fraction(content, total.denominator), _unpack(n, dict(root), base, [1] * base)


def evaluate(f: Polynomial, point: Sequence):
    """Exact value of f at a rational point."""
    if len(point) != f.dimension:
        raise ValueError(f"point has length {len(point)}, expected {f.dimension}")
    values = [rational(v) for v in point]
    total = Fraction(0)
    for mono, coeff in f.terms.items():
        term = coeff
        for v, e in zip(values, mono):
            if e:
                term = term * v**e
        total += term
    return total


def substitute_linear(f: Polynomial, matrix) -> Polynomial:
    """f(Mx): replace variable x_i by the linear form L_i = sum_j M[i][j] x_j.

    The matrix must be square of size n = f.dimension, with exact rational
    entries (a RationalMatrix or any nested sequence of rationals).

    Algorithm: Horner's scheme over the trie of monomials.  Writing each
    monomial as a sorted index sequence i_1 <= ... <= i_d gives
    f = c + sum_i x_i f_i with f_i built from indices >= i, so
    f(Mx) = c + sum_i L_i f_i(Mx) and every trie node costs one product
    with a linear form of at most n terms.  The recursion runs in Python
    integers on ``_pack``'s packed monomials: the matrix is multiplied by
    the lcm of its denominators (``scale``), f is taken over the lcm of its
    coefficient denominators (``denom``), and each L_i is packed, so each
    product is one pass of the one product loop.  The degree-d part is
    divided by denom * scale^d once at the end, one rational per output term.

    The terms of the result are in canonical graded-lex descending order
    (the order of ``sorted_terms``), so iterating over them does not depend
    on the order of f's terms.
    """
    rows = matrix.entries if hasattr(matrix, "entries") else tuple(tuple(r) for r in matrix)
    n = f.dimension
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"matrix must be {n}x{n}")
    if not f.terms:
        return _raw(n, {})
    entries = [[rational(value) for value in row] for row in rows]
    scale = lcm(*(c.denominator for row in entries for c in row))
    base = f.total_degree() + 1
    packed, denom = _pack(f, base)
    keys = _variable_keys(n, base)
    forms = [
        [(keys[j], c.numerator * (scale // c.denominator)) for j, c in enumerate(row) if c]
        for row in entries
    ]

    def horner(items: list, depth: int) -> dict[int, int]:
        # items: (index sequence, integer coefficient), sharing a prefix of length depth
        out: dict[int, int] = defaultdict(int)
        children: dict[int, list] = {}
        for sequence, coeff in items:
            if len(sequence) == depth:
                out[0] += coeff
            else:
                children.setdefault(sequence[depth], []).append((sequence, coeff))
        for i, child_items in children.items():
            _sum_of_products([(horner(child_items, depth + 1).items(), forms[i])], out)
        return out

    items = [
        ([i for i, e in enumerate(mono) for _ in range(e)], numerator)
        for mono, (_, numerator) in zip(f.terms, packed)
    ]
    return _unpack(n, horner(items, 0), base, [denom * scale**d for d in range(base)])


def homogeneous_split(
    f: Polynomial, blocks: Sequence[Iterable[int]]
) -> dict[tuple[int, ...], Polynomial]:
    """Split f by multi-degree across disjoint variable blocks.

    ``blocks`` lists disjoint sets of variable indices; variables not
    covered form one implicit trailing block.  Returns a map from the
    multi-degree tuple to the polynomial part carrying it.
    """
    block_sets = [frozenset(b) for b in blocks]
    seen: set[int] = set()
    for b in block_sets:
        if not all(0 <= i < f.dimension for i in b):
            raise ValueError("block index out of range")
        if b & seen:
            raise ValueError("blocks overlap")
        seen |= b
    rest = frozenset(range(f.dimension)) - seen
    if rest:
        block_sets.append(rest)

    pieces: dict[tuple[int, ...], dict[Monomial, object]] = {}
    for mono, coeff in f.terms.items():
        key = tuple(sum(mono[i] for i in b) for b in block_sets)
        pieces.setdefault(key, {})[mono] = coeff
    return {key: _raw(f.dimension, terms) for key, terms in pieces.items()}


def block_radial(dimension: int, indices: Iterable[int], power: int = 1) -> Polynomial:
    """(sum of x_i^2 over the given distinct variables) ** power.

    Expanded multinomially: one term per multiset of ``power`` indices, with
    coefficient power! / prod_i a_i! for the multiplicities a_i.
    """
    if power < 0:
        raise ValueError("exponent must be nonnegative")
    terms = {}
    for chosen, coeff in _multinomials(indices, power):
        mono = [0] * dimension
        for i in chosen:
            mono[i] += 2
        terms[tuple(mono)] = Fraction(coeff)
    return _raw(dimension, terms)


def _multinomials(indices: Iterable[int], power: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(multiset, power! / prod_i a_i!) per sorted multiset of ``power`` indices.

    a_i is the multiplicity of index i in the multiset.
    """
    top = factorial(power)
    for chosen in combinations_with_replacement(sorted(indices), power):
        divisor, run, previous = 1, 0, None  # prod_i a_i!, one factor per chosen index
        for i in chosen:
            run = run + 1 if i == previous else 1
            divisor *= run
            previous = i
        yield chosen, top // divisor


def radial_power(dimension: int, exponent: int) -> Polynomial:
    """(x_0^2 + ... + x_{n-1}^2)^exponent, expanded multinomially."""
    return block_radial(dimension, range(dimension), exponent)


# -- poly-text wire format ----------------------------------------------------


_COEFF_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


class PolyTextError(ValueError):
    """Malformed poly-text input; carries the 1-based offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


def _meaningful_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based input line number, content) of each line with text left.

    The one scanner of the three text formats (poly-text, normal-form data,
    rotation files): ``#`` starts a comment, and blank lines are skipped.
    """
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def poly_from_text(text: str) -> Polynomial:
    """Parse the poly-text format.

    Line 1 (ignoring comments and blanks) is ``n <dimension>``; every
    following line is n exponent integers and one rational coefficient.
    Term order is free and duplicate monomials are merged.
    """
    return _poly_from_lines(_meaningful_lines(text))


def _poly_from_lines(lines: Iterator[tuple[int, str]]) -> Polynomial:
    """``poly_from_text`` on ``_meaningful_lines`` output; errors keep its line numbers."""
    try:
        number, header = next(lines)
    except StopIteration:
        raise PolyTextError("empty input, expected 'n <dimension>' header") from None
    fields = header.split()
    if len(fields) != 2 or fields[0] != "n":
        raise PolyTextError("expected header 'n <dimension>'", number)
    try:
        dimension = int(fields[1])
    except ValueError:
        raise PolyTextError(f"dimension is not an integer: {fields[1]!r}", number) from None
    if dimension < 0:
        raise PolyTextError("dimension must be nonnegative", number)

    terms: dict[Monomial, object] = {}
    for number, line in lines:
        fields = line.split()
        if len(fields) != dimension + 1:
            raise PolyTextError(
                f"expected {dimension} exponents and a coefficient, got {len(fields)} fields",
                number,
            )
        try:
            mono = tuple(int(tok) for tok in fields[:dimension])
        except ValueError:
            raise PolyTextError(f"bad exponent in {fields[:dimension]}", number) from None
        if any(e < 0 for e in mono):
            raise PolyTextError("exponents must be nonnegative", number)
        token = fields[dimension]
        parts = _COEFF_RE.fullmatch(token)
        if parts is None:
            raise PolyTextError(f"bad coefficient {token!r}, expected p or p/q", number)
        numerator, denominator = parts.groups()
        try:
            coeff = Fraction(int(numerator), int(denominator or 1))
        except ZeroDivisionError:
            raise PolyTextError(f"bad coefficient {token!r}, zero denominator", number) from None
        if coeff:
            _add_terms(terms, [(mono, coeff)])
    return _raw(dimension, terms)


def poly_to_text(f: Polynomial, header_comment: str | None = None) -> str:
    """Serialize in canonical form: graded-lex descending, lowest terms."""
    out = []
    if header_comment:
        for line in header_comment.splitlines():
            out.append(f"# {line}".rstrip())
    out.append(f"n {f.dimension}")
    for mono, coeff in f.sorted_terms():
        out.append(" ".join(str(e) for e in mono) + f" {coeff}")
    return "\n".join(out) + "\n"
