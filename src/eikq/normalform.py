"""Rotation of an eikonal quartic into its normal form.

Any quartic solution of |grad f|^2 = 16 |x|^6 attains the value 1 somewhere
on the unit sphere, and after an orthogonal change of variables sending e_n
to such a maximizer it reads

    f = x_n^4 + 2 phi(x') x_n^2 + 8 psi(x') x_n + theta(x')

with phi having eigenvalues +1 and -3 only.  A second block rotation
diagonalizes phi, splitting x' into xi (the +1 block, size p) and eta (the
-3 block, size q); psi then collapses to xi^T A_eta xi, which is where the
matrix pencil comes from, and theta splits by eta-degree into theta_0,
theta_2, theta_3, theta_4 with no eta-cubic part.

Two extraction routes are provided.  With an exact orthogonal `rotation`
everything stays in rational arithmetic and any failed structural fact is
reported: a wrong target (ValueError) when the data merely does not expose
the normal form, or `NotEikonalEvidence` when the failure contradicts
eikonality itself.  Without a rotation, a numeric sphere ascent finds a
maximizer, the resulting float rotations are rationalized entry by entry,
and the same exact pipeline runs; deviations are accumulated into
`extraction_residual` and judged against a snap tolerance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constructors import NormalFormData
from .matrices import RationalMatrix, orthonormalize_rational
from .pencils import Pencil, quadratic_form_matrix
from .polyring import (
    Polynomial,
    _raw,
    partial_derivative,
    rational,
    substitute_linear,
)

SNAP_TOL = 1e-6

_HALTON_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                  59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)


class NotEikonalEvidence(Exception):
    """Extraction met structure that no eikonal quartic can have."""


@dataclass(frozen=True)
class NormalForm:
    """An extracted normal form together with the rotation that produced it.

    `rotation` is the exact orthogonal matrix U with f(U x) in normal form
    (on the float route, the rationalization of a numeric rotation).
    `phi_eigenvalues` lists the snapped +1/-3 diagonal; the theta components
    are polynomials in p + q variables, xi first.  `extraction_residual`
    bounds everything that was discarded on the way: deviations of the
    x_n^4 coefficient from 1, of the cubic layer from 0, off-diagonal debris
    of phi, stray psi components, and the eta-cubic part of theta.
    """

    rotation: RationalMatrix
    p: int
    q: int
    phi_eigenvalues: tuple[int, ...]
    pencil: Pencil
    theta0: Polynomial
    theta2: Polynomial
    theta3: Polynomial
    theta4: Polynomial
    arithmetic: str
    extraction_residual: float

    @property
    def n(self) -> int:
        return self.p + self.q + 1

    def to_data(self) -> NormalFormData:
        """Forget the rotation; keep the free data (pencil, theta_3)."""
        return NormalFormData(self.p, self.q, self.pencil, self.theta3)

    def to_json_dict(self) -> dict:
        from .polyring import poly_to_text

        return {
            "p": self.p,
            "q": self.q,
            "phi_eigenvalues": list(self.phi_eigenvalues),
            "arithmetic": self.arithmetic,
            "extraction_residual": self.extraction_residual,
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
    dim = theta.dimension
    buckets: dict[int, dict] = {k: {} for k in range(5)}
    for mono, coeff in theta.terms.items():
        d_xi = sum(mono[:p])
        d_eta = sum(mono[p:])
        if d_xi + d_eta != 4:
            raise ValueError("theta must be homogeneous of degree 4")
        buckets[d_xi][mono] = coeff
    return {k: _raw(dim, terms) for k, terms in buckets.items()}


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
    stray = parts[1]
    if not stray.is_zero and abs(float(stray.max_abs_coefficient())) > tol:
        raise NotEikonalEvidence(
            "theta has a component linear in xi, which no eikonal quartic allows"
        )
    return parts[0], parts[2], parts[3], parts[4]


def _xn_layers(g: Polynomial) -> dict[int, Polynomial]:
    """Coefficients of x_n^0..x_n^4 as polynomials in the other variables."""
    m = g.dimension - 1
    buckets: dict[int, dict] = {e: {} for e in range(5)}
    for mono, coeff in g.terms.items():
        buckets[mono[-1]][mono[:-1]] = coeff
    return {e: _raw(m, terms) for e, terms in buckets.items()}


def _magnitude(f: Polynomial) -> float:
    return 0.0 if f.is_zero else abs(float(f.max_abs_coefficient()))


def _extract_psi_pencil(
    psi: Polynomial, p: int, q: int, tol: float
) -> tuple[Pencil, float]:
    """Read the pencil off psi = xi^T A_eta xi; measure stray components."""
    stray = 0.0
    entries = [
        [[rational(0) for _ in range(p)] for _ in range(p)] for _ in range(q)
    ]
    for mono, coeff in psi.terms.items():
        d_xi = sum(mono[:p])
        d_eta = sum(mono[p:])
        if d_xi != 2 or d_eta != 1:
            stray = max(stray, abs(float(coeff)))
            continue
        i = next(k for k in range(q) if mono[p + k])
        support = [j for j in range(p) if mono[j]]
        if len(support) == 1:
            entries[i][support[0]][support[0]] = coeff
        else:
            j, k = support
            half = coeff / 2
            entries[i][j][k] = half
            entries[i][k][j] = half
    if stray > tol:
        raise NotEikonalEvidence(
            "the x_n-linear coefficient is not of the form xi^T A_eta xi"
        )
    pencil = tuple(RationalMatrix(rows) for rows in entries)
    return pencil, stray


def _extract_exact(f: Polynomial, rotation: RationalMatrix) -> NormalForm:
    n = f.dimension
    if not rotation.is_square or rotation.n_rows != n:
        raise ValueError(f"rotation must be {n} x {n}")
    if not rotation.is_orthogonal():
        raise ValueError("rotation must be exactly orthogonal")
    g = substitute_linear(f, rotation)
    layers = _xn_layers(g)
    m = n - 1
    if layers[4] != Polynomial.constant(m, 1):
        raise ValueError(
            "rotation must send the last basis vector to a point with f = 1"
        )
    if not layers[3].is_zero:
        raise ValueError(
            "rotation does not target a critical point of f on the sphere"
        )
    phi = rational(1, 2) * layers[2]
    big_phi = quadratic_form_matrix(phi, range(m))
    ident = RationalMatrix.identity(m)
    if not ((big_phi - ident) @ (big_phi + ident.scale(3))).is_zero():
        raise NotEikonalEvidence(
            "the x_n^2 coefficient has eigenvalues outside {1, -3}"
        )
    plus = (big_phi - ident).kernel_basis()
    minus = (big_phi + ident.scale(3)).kernel_basis()
    p, q = len(plus), len(minus)
    if p + q != m:
        raise NotEikonalEvidence("the x_n^2 coefficient is not diagonalizable")
    plus_on = orthonormalize_rational(plus)
    minus_on = orthonormalize_rational(minus)
    if plus_on is None or minus_on is None:
        raise ValueError(
            "no rational orthonormal eigenbasis for the x_n^2 coefficient; "
            "supply a rotation that diagonalizes it"
        )
    columns = plus_on + minus_on
    v = RationalMatrix([[columns[j][i] for j in range(m)] for i in range(m)])
    if v != RationalMatrix.identity(m):
        w_rows = [list(v.row(i)) + [rational(0)] for i in range(m)]
        w_rows.append([rational(0)] * m + [rational(1)])
        w = RationalMatrix(w_rows)
        rotation = rotation @ w
        g = substitute_linear(g, w)
        layers = _xn_layers(g)
    psi = rational(1, 8) * layers[1]
    pencil, _ = _extract_psi_pencil(psi, p, q, 0.0)
    theta0, theta2, theta3, theta4 = split_theta(layers[0], p, q, 0.0)
    return NormalForm(
        rotation=rotation,
        p=p,
        q=q,
        phi_eigenvalues=(1,) * p + (-3,) * q,
        pencil=pencil,
        theta0=theta0,
        theta2=theta2,
        theta3=theta3,
        theta4=theta4,
        arithmetic="exact",
        extraction_residual=0.0,
    )


def _float_arrays(f: Polynomial):
    # canonical order, so the float sums (and ties between equal maxima)
    # do not depend on the order in which f's terms were given
    terms = f.sorted_terms()
    exps = np.array([mono for mono, _ in terms], dtype=float)
    coeffs = np.array([float(c) for _, c in terms])
    return exps, coeffs


def _halton(index: int, base: int) -> float:
    result = 0.0
    fraction = 1.0
    while index > 0:
        fraction /= base
        result += fraction * (index % base)
        index //= base
    return result


def sphere_maximize(
    f: Polynomial, seeds: int = 64, tol: float = 1e-9, seed: int = 0
) -> tuple[float, ...]:
    """Numerically maximize f over the unit sphere by projected ascent.

    Starts from `seeds` low-discrepancy directions (shifted by `seed`),
    runs adaptive-step projected gradient ascent capped at 10^4 iterations
    each, and returns the best point whose tangential gradient dropped below
    `tol`.  If no start converges a warning is emitted and the best iterate
    found is returned anyway.
    """
    n = f.dimension
    if n < 1:
        raise ValueError("cannot maximize over a zero-dimensional sphere")
    if f.is_zero:
        raise ValueError("cannot maximize the zero polynomial")
    exps, coeffs = _float_arrays(f)
    partials = [partial_derivative(f, i) for i in range(n)]
    grads = [_float_arrays(g) for g in partials]
    hessians = [
        [_float_arrays(partial_derivative(partials[i], j)) for j in range(n)]
        for i in range(n)
    ]

    def value(x: np.ndarray) -> float:
        return float(coeffs @ np.prod(x ** exps, axis=1))

    def grad(x: np.ndarray) -> np.ndarray:
        out = np.empty(n)
        for i, (e, c) in enumerate(grads):
            out[i] = c @ np.prod(x ** e, axis=1) if len(c) else 0.0
        return out

    def hessian(x: np.ndarray) -> np.ndarray:
        out = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                e, c = hessians[i][j]
                out[i, j] = out[j, i] = c @ np.prod(x ** e, axis=1) if len(c) else 0.0
        return out

    def polish(x: np.ndarray) -> np.ndarray:
        # Newton on the first-order sphere condition grad f = lambda x;
        # quadratic convergence takes the ascent's 1e-7 down to roundoff.
        for _ in range(25):
            gvec = grad(x)
            lam = float(gvec @ x)
            tangent = gvec - lam * x
            if np.linalg.norm(tangent) <= 1e-15:
                break
            projector = np.eye(n) - np.outer(x, x)
            system = projector @ hessian(x) @ projector - lam * projector + np.outer(x, x)
            try:
                delta = np.linalg.solve(system, -tangent)
            except np.linalg.LinAlgError:
                delta, *_ = np.linalg.lstsq(system, -tangent, rcond=None)
            if not np.all(np.isfinite(delta)) or np.linalg.norm(delta) > 0.5:
                break
            x = x + delta
            x /= np.linalg.norm(x)
        return x

    bases = [_HALTON_PRIMES[i % len(_HALTON_PRIMES)] for i in range(n)]
    best_any: tuple[float, np.ndarray] | None = None
    best_conv: tuple[float, np.ndarray] | None = None
    for k in range(seeds):
        raw = np.array(
            [2.0 * _halton(seed * seeds + k + 1, b) - 1.0 for b in bases]
        )
        norm = np.linalg.norm(raw)
        if norm < 1e-12:
            raw = np.zeros(n)
            raw[k % n] = 1.0
            norm = 1.0
        x = raw / norm
        val = value(x)
        step = 0.25
        coarse = max(tol, 1e-7)
        for _ in range(10_000):
            gvec = grad(x)
            tangent = gvec - (gvec @ x) * x
            if np.linalg.norm(tangent) <= coarse:
                break
            y = x + step * tangent
            y /= np.linalg.norm(y)
            fy = value(y)
            if fy > val:
                x, val = y, fy
                step = min(step * 1.5, 1.0)
            else:
                step *= 0.5
                if step < 1e-17:
                    break
        x = polish(x)
        val = value(x)
        gvec = grad(x)
        converged = bool(np.linalg.norm(gvec - (gvec @ x) * x) <= tol)
        if best_any is None or val > best_any[0]:
            best_any = (val, x)
        if converged and (best_conv is None or val > best_conv[0]):
            best_conv = (val, x)
    if best_conv is not None:
        return tuple(float(c) for c in best_conv[1])
    warnings.warn(
        "sphere ascent did not converge from any start; returning best iterate",
        RuntimeWarning,
        stacklevel=2,
    )
    assert best_any is not None
    return tuple(float(c) for c in best_any[1])


def _householder_to_last(v: np.ndarray) -> np.ndarray:
    """Orthogonal matrix sending the last basis vector to v."""
    n = len(v)
    e = np.zeros(n)
    e[-1] = 1.0
    w = e - v
    norm_sq = float(w @ w)
    if norm_sq < 1e-24:
        return np.eye(n)
    return np.eye(n) - 2.0 * np.outer(w, w) / norm_sq


def _extract_float(
    f: Polynomial, tol: float, seeds: int, seed: int
) -> NormalForm:
    n = f.dimension
    point = np.array(sphere_maximize(f, seeds=seeds, tol=tol, seed=seed))
    rot1 = RationalMatrix.from_float(_householder_to_last(point))
    g = substitute_linear(f, rot1)
    layers = _xn_layers(g)
    m = n - 1
    residual = _magnitude(layers[4] - Polynomial.constant(m, 1))
    residual = max(residual, _magnitude(layers[3]))
    if residual > SNAP_TOL:
        raise NotEikonalEvidence(
            "no sphere maximum with value 1 and critical structure was found"
        )
    phi = rational(1, 2) * layers[2]
    big_phi = quadratic_form_matrix(phi, range(m))
    phi_float = np.array(big_phi.to_float()) if m else np.zeros((0, 0))
    eigvals, eigvecs = np.linalg.eigh(phi_float) if m else (np.array([]), np.eye(0))
    snapped = []
    for lam in eigvals:
        if abs(lam - 1.0) <= SNAP_TOL:
            snapped.append(1)
        elif abs(lam + 3.0) <= SNAP_TOL:
            snapped.append(-3)
        else:
            raise NotEikonalEvidence(
                f"the x_n^2 coefficient has eigenvalue {lam}, outside {{1, -3}}"
            )
        residual = max(residual, abs(lam - snapped[-1]))
    order = [i for i, s in enumerate(snapped) if s == 1] + [
        i for i, s in enumerate(snapped) if s == -3
    ]
    p = sum(1 for s in snapped if s == 1)
    q = m - p
    if m:
        basis = eigvecs[:, order]
        w_float = np.zeros((n, n))
        w_float[:m, :m] = basis
        w_float[m, m] = 1.0
        w = RationalMatrix.from_float(w_float)
        g = substitute_linear(g, w)
        layers = _xn_layers(g)
        rotation = rot1 @ w
    else:
        rotation = rot1
    phi2 = rational(1, 2) * layers[2]
    ideal = _raw(
        m,
        {
            tuple(2 if j == i else 0 for j in range(m)): rational(s)
            for i, s in enumerate((1,) * p + (-3,) * q)
        },
    )
    residual = max(residual, _magnitude(phi2 - ideal))
    if residual > SNAP_TOL:
        raise NotEikonalEvidence("the x_n^2 coefficient did not diagonalize")
    psi = rational(1, 8) * layers[1]
    pencil, stray = _extract_psi_pencil(psi, p, q, SNAP_TOL)
    residual = max(residual, stray)
    parts = _theta_components(layers[0], p)
    residual = max(residual, _magnitude(parts[1]))
    if _magnitude(parts[1]) > SNAP_TOL:
        raise NotEikonalEvidence(
            "theta has a component linear in xi, which no eikonal quartic allows"
        )
    return NormalForm(
        rotation=rotation,
        p=p,
        q=q,
        phi_eigenvalues=(1,) * p + (-3,) * q,
        pencil=pencil,
        theta0=parts[0],
        theta2=parts[2],
        theta3=parts[3],
        theta4=parts[4],
        arithmetic="float",
        extraction_residual=residual,
    )


def extract_normal_form(
    f: Polynomial,
    rotation: RationalMatrix | None = None,
    *,
    tol: float = 1e-9,
    seeds: int = 64,
    seed: int = 0,
) -> NormalForm:
    """Rotate f into normal form, exactly or numerically.

    With `rotation` given, the whole extraction is exact: ValueError means
    the rotation does not expose the normal form (wrong target, or no
    rational orthonormal eigenbasis), while NotEikonalEvidence means f
    cannot be eikonal at all.  Without a rotation, a numeric maximizer is
    located first and every later rotation is rationalized, so the result
    carries arithmetic="float" and a nonzero extraction residual.
    """
    if f.dimension < 1:
        raise ValueError("f must have at least one variable")
    if f.is_zero or not f.is_homogeneous(4):
        raise ValueError("f must be a nonzero homogeneous quartic")
    if rotation is not None:
        return _extract_exact(f, rotation)
    return _extract_float(f, tol=tol, seeds=seeds, seed=seed)
