"""Known answers computed without eikq.

Everything here works on plain ``{exponent tuple: Fraction}`` dictionaries
so it shares no code with ``eikq.polyring``:

* the primitive family, expanded from its binomial definition;
* a point certificate that a polynomial is not eikonal;
* the poly-text reader and writer the benchmark uses for its own files;
* the eikonal check of a search hit, assembled from its normal-form text.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial, gcd


def _compositions(total: int, parts: int):
    """Every tuple of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _radial_power(indices: range, power: int, n: int) -> dict:
    """(sum of x_i^2 over indices) ** power, expanded multinomially."""
    out = {}
    for alpha in _compositions(power, len(indices)):
        coeff = factorial(power)
        mono = [0] * n
        for i, a in zip(indices, alpha):
            coeff //= factorial(a)
            mono[i] = 2 * a
        out[tuple(mono)] = coeff
    return out


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return {m: c for m, c in out.items() if c != 0}


def _add_scaled(out: dict, part: dict, scale) -> None:
    for mono, coeff in part.items():
        value = out.get(mono, 0) + scale * coeff
        if value:
            out[mono] = value
        else:
            out.pop(mono, None)


def primitive(g: int, n: int, dimh: int) -> dict:
    """Terms of sum_k (-1)^k C(g, 2k) xi^(g-2k) |eta|^(2k), H = first dimh axes.

    For odd g the subspace H is the x_0 axis and xi is x_0 itself.
    """
    out: dict = {}
    eta = range(dimh, n)
    for k in range(g // 2 + 1):
        radial = _radial_power(eta, k, n)
        if g % 2 == 0:
            head = _radial_power(range(dimh), (g - 2 * k) // 2, n)
        else:
            head = {tuple(g - 2 * k if i == 0 else 0 for i in range(n)): 1}
        _add_scaled(out, _mul(head, radial), (-1) ** k * comb(g, 2 * k))
    return {m: Fraction(c) for m, c in out.items()}


def _evaluate(terms: dict, point) -> Fraction:
    total = Fraction(0)
    for mono, coeff in terms.items():
        value = coeff
        for x, e in zip(point, mono):
            if e:
                value *= x ** e
        total += value
    return total


def eikonal_defect_at(terms: dict, n: int, g: int, point) -> Fraction:
    """|grad f|^2 - g^2 |x|^(2g-2) evaluated at one rational point."""
    grad_sq = Fraction(0)
    for i in range(n):
        partial = {}
        for mono, coeff in terms.items():
            if mono[i]:
                lowered = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
                partial[lowered] = partial.get(lowered, 0) + coeff * mono[i]
        grad_sq += _evaluate(partial, point) ** 2
    return grad_sq - g * g * sum(x * x for x in point) ** (g - 1)


def non_eikonal_certificate(terms: dict, n: int, g: int, rng: random.Random, floor=Fraction(0)):
    """A point in [-1, 1]^n where the eikonal defect exceeds `floor` in size, or None.

    With every |x_i| <= 1 each monomial of the residual is at most 1 there,
    so a defect larger than T * floor proves some residual coefficient
    exceeds `floor` when the residual has at most T terms.
    """
    residual_terms = comb(n + 2 * g - 3, n - 1)
    for _ in range(8):
        point = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), 4) for _ in range(n)]
        defect = eikonal_defect_at(terms, n, g, point)
        if abs(defect) > residual_terms * floor and defect != 0:
            return point
    return None


def poly_text(terms: dict, n: int) -> str:
    lines = [f"n {n}"]
    for mono, coeff in sorted(terms.items()):
        lines.append(" ".join(map(str, mono)) + f" {coeff}")
    return "\n".join(lines) + "\n"


def parse_poly_text(text: str) -> tuple[int, dict]:
    """(dimension, terms) of a poly-text document; repeated monomials add up."""
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [row for row in rows if row]
    n = int(rows[0][1])
    terms: dict = {}
    for row in rows[1:]:
        mono = tuple(int(e) for e in row[:n])
        terms[mono] = terms.get(mono, 0) + Fraction(row[n])
    return n, {m: c for m, c in terms.items() if c != 0}


def rotation_text(rows) -> str:
    n = len(rows)
    body = "\n".join(" ".join(str(v) for v in row) for row in rows)
    return f"{n}\n{body}\n"


def _linear(index: int, n: int) -> dict:
    return {tuple(int(i == index) for i in range(n)): 1}


def _sum(parts) -> dict:
    out: dict = {}
    for scale, part in parts:
        _add_scaled(out, part, scale)
    return out


def hit_is_eikonal(text: str) -> bool:
    """Assemble a normal-form text and check |grad f|^2 = 16 |x|^6 exactly.

    The quartic is x_n^4 + 2 phi x_n^2 + 8 psi x_n + theta with
    phi = |xi|^2 - 3 |eta|^2, psi = xi^T A_eta xi and
    theta = |xi|^4 - 2 sum_i tau_i^2 + theta_3 + 8 xi^T A_eta^2 xi
    - 6 |xi|^2 |eta|^2 + |eta|^4, tau_i = xi^T A_i xi.  The check runs on
    integer coefficients after clearing denominators.
    """
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [row for row in rows if row]
    p, q = int(rows[0][0]), int(rows[0][1])
    pencil = [[[Fraction(v) for v in row] for row in rows[1 + i * p: 1 + (i + 1) * p]]
              for i in range(q)]
    m = p + q
    n = m + 1
    x = [_linear(i, n) for i in range(n)]

    def form(matrix) -> dict:
        return _sum([(matrix[j][k], _mul(x[j], x[k]))
                     for j in range(p) for k in range(p) if matrix[j][k]])

    def product(a, b):
        return [[sum(a[j][t] * b[t][k] for t in range(p)) for k in range(p)] for j in range(p)]

    xi_sq = _radial_power(range(p), 1, n)
    eta_sq = _radial_power(range(p, m), 1, n)
    taus = [form(a) for a in pencil]
    psi = _sum([(1, _mul(x[p + i], tau)) for i, tau in enumerate(taus)])
    a_sq_eta = _sum([(1, _mul(_mul(x[p + i], x[p + l]), form(product(pencil[i], pencil[l]))))
                     for i in range(q) for l in range(q)])
    theta3 = {tuple(int(e) for e in row[:m]) + (0,): Fraction(row[m]) for row in rows[2 + q * p:]}
    xn2 = _mul(x[m], x[m])
    f = _sum([(1, _mul(xn2, xn2)), (2, _mul(xi_sq, xn2)), (-6, _mul(eta_sq, xn2)),
              (8, _mul(psi, x[m])), (1, _mul(xi_sq, xi_sq)),
              *[(-2, _mul(tau, tau)) for tau in taus], (1, theta3), (8, a_sq_eta),
              (-6, _mul(xi_sq, eta_sq)), (1, _mul(eta_sq, eta_sq))])
    scale = 1
    for coeff in f.values():
        scale = scale * Fraction(coeff).denominator // gcd(scale, Fraction(coeff).denominator)
    f = {mono: int(coeff * scale) for mono, coeff in f.items()}
    grad_sq: dict = {}
    for i in range(n):
        partial = {mono[:i] + (mono[i] - 1,) + mono[i + 1:]: c * mono[i]
                   for mono, c in f.items() if mono[i]}
        _add_scaled(grad_sq, _mul(partial, partial), 1)
    _add_scaled(grad_sq, _radial_power(range(n), 3, n), -16 * scale * scale)
    return not grad_sq
