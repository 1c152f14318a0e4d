"""Tests for normal-form extraction: the exact rotation route, the
closed-form sphere step, and the structural evidence raised against
non-solutions."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _data as data
from eikq.analysis import check_structure_identities
from eikq.constructors import (
    NormalFormData,
    assemble_from_normal_form,
    make_canonical_quartic,
    make_primitive,
)
from eikq.matrices import RationalMatrix, random_rational_orthogonal
from eikq.normalform import (
    NormalForm,
    NotEikonalEvidence,
    _householder_to_last,
    extract_normal_form,
    sphere_maximize,
    split_theta,
)
from eikq.polyring import (
    Polynomial,
    evaluate,
    partial_derivative,
    poly_from_text,
    rational,
    substitute_linear,
)

SPHERE_POINTS = json.loads(
    (Path(__file__).parent / "data" / "sphere_points.json").read_text()
)


def identity_extract(f: Polynomial) -> NormalForm:
    return extract_normal_form(f, RationalMatrix.identity(f.dimension))


def givens(n: int, i: int, j: int, angle: float) -> np.ndarray:
    out = np.eye(n)
    out[i, i] = out[j, j] = np.cos(angle)
    out[i, j] = -np.sin(angle)
    out[j, i] = np.sin(angle)
    return out


class TestExactExtraction:
    def test_round_trip_known_data(self):
        for d in (data.involution_data(), data.zero_pencil_data(),
                  data.isoparametric_data()):
            nf = identity_extract(assemble_from_normal_form(d))
            assert nf.arithmetic == "exact"
            assert nf.extraction_residual == 0.0
            assert (nf.p, nf.q) == (d.p, d.q)
            assert nf.to_data() == d

    def test_normal_form_is_its_data(self):
        # NormalForm is NormalFormData plus how it was read: the identities
        # see the same pencil and theta_3 either way
        nf = identity_extract(assemble_from_normal_form(data.isoparametric_data()))
        assert isinstance(nf, NormalFormData)
        assert nf.ambient_dimension == nf.rotation.n_rows
        assert check_structure_identities(nf) == check_structure_identities(nf.to_data())

    def test_theta_components(self):
        nf = identity_extract(assemble_from_normal_form(data.involution_data()))
        p, q = nf.p, nf.q
        assert nf.phi_eigenvalues == (1,) * p + (-3,) * q
        assert nf.theta0 == Polynomial.monomial(3, (0, 0, 4))
        assert nf.theta3.is_zero

    def test_canonical_quartic_block_sizes(self):
        # phi = |x'|^2 - 4 |x_K|^2 is already diagonal: p = n-1-k, q = k
        for n, k in ((4, 1), (5, 2), (6, 2)):
            nf = identity_extract(make_canonical_quartic(n, k))
            assert (nf.p, nf.q) == (n - 1 - k, k)
            assert all(a.is_zero() for a in nf.pencil)

    def test_primitive_two_presentations(self):
        # dim H = 1: the maximizer on H gives (0, n-1), one on the
        # complement gives (n-2, 1); both are exact normal forms
        n = 5
        h = make_primitive(4, n, 1)
        swap = RationalMatrix(
            [[1 if {i, j} == {0, n - 1} or (i == j and i not in (0, n - 1)) else 0
              for j in range(n)] for i in range(n)]
        )
        on_h = extract_normal_form(h, swap)
        assert (on_h.p, on_h.q) == (0, n - 1)
        off_h = identity_extract(h)
        assert (off_h.p, off_h.q) == (n - 2, 1)
        assert all(a.is_zero() for a in off_h.pencil)

    def test_eigenbasis_reordering(self):
        # a permuted phi block forces the internal eigenbasis rotation
        f = make_canonical_quartic(4, 1)
        perm = RationalMatrix(
            [[1 if (i, j) in {(0, 2), (2, 0), (1, 1), (3, 3)} else 0
              for j in range(4)] for i in range(4)]
        )
        g = substitute_linear(f, perm)
        nf = identity_extract(g)
        assert (nf.p, nf.q) == (2, 1)
        assert nf.rotation.is_orthogonal()
        # the recorded rotation must itself expose the normal form
        again = extract_normal_form(g, nf.rotation)
        assert (again.p, again.q) == (2, 1)

    def test_rotated_input_with_inverse_rotation(self):
        f = assemble_from_normal_form(data.isoparametric_data())
        u = random_rational_orthogonal(6, 3)
        g = substitute_linear(f, u)
        nf = extract_normal_form(g, u.transpose())
        assert nf.arithmetic == "exact"
        assert (nf.p, nf.q) == (3, 2)
        assert nf.to_data() == data.isoparametric_data()

    def test_scaled_input_rejected(self):
        f = 2 * make_canonical_quartic(3, 1)
        with pytest.raises(ValueError, match="f = 1"):
            identity_extract(f)

    def test_non_critical_target_rejected(self):
        f = Polynomial(2, {(0, 4): 1, (1, 3): 1})
        with pytest.raises(ValueError, match="critical point"):
            identity_extract(f)

    def test_non_orthogonal_rotation_rejected(self):
        f = make_canonical_quartic(3, 1)
        with pytest.raises(ValueError, match="orthogonal"):
            extract_normal_form(f, RationalMatrix.identity(3).scale(2))

    def test_wrong_shape_rotation_rejected(self):
        f = make_canonical_quartic(3, 1)
        with pytest.raises(ValueError, match="3 x 3"):
            extract_normal_form(f, RationalMatrix.identity(4))

    def test_bad_phi_eigenvalue_is_evidence(self):
        f = Polynomial(2, {(0, 4): 1, (2, 2): 4})  # phi = 2 x1^2
        with pytest.raises(NotEikonalEvidence, match="eigenvalues"):
            identity_extract(f)

    def test_theta_linear_in_xi_is_evidence(self):
        f = Polynomial(3, {(0, 0, 4): 1, (2, 0, 2): 2, (0, 2, 2): -6,
                           (1, 3, 0): 1})
        with pytest.raises(NotEikonalEvidence, match="linear in xi"):
            identity_extract(f)

    def test_stray_psi_is_evidence(self):
        f = Polynomial(3, {(0, 0, 4): 1, (2, 0, 2): 2, (0, 2, 2): -6,
                           (0, 3, 1): 8})
        with pytest.raises(NotEikonalEvidence, match="x_n-linear"):
            identity_extract(f)

    def test_irrational_eigenbasis_needs_explicit_rotation(self):
        # phi = -x1^2 - x2^2 + 4 x1 x2 has eigenvalues {1, -3} but
        # eigenvectors of norm sqrt(2)
        f = Polynomial(3, {(0, 0, 4): 1, (2, 0, 2): -2, (0, 2, 2): -2,
                           (1, 1, 2): 8})
        with pytest.raises(ValueError, match="rational orthonormal"):
            identity_extract(f)

    def test_non_quartic_rejected(self):
        with pytest.raises(ValueError, match="quartic"):
            identity_extract(Polynomial.monomial(2, (3, 0)))
        with pytest.raises(ValueError, match="quartic"):
            identity_extract(Polynomial.zero(2))

    def test_one_variable_quartic(self):
        nf = identity_extract(Polynomial.monomial(1, (4,)))
        assert (nf.p, nf.q) == (0, 0)
        assert nf.pencil == ()


def _sweep_inputs() -> list[tuple[str, Polynomial]]:
    """+-h_d for n = 2..7, the (3, 2, 1) isoparametric quartic, FKM(1, 4)
    and the involution; -|x|^4 is left out, since its maximum is -1."""
    out = []
    for n in range(2, 8):
        for d in range(n + 1):
            h = make_primitive(4, n, d)
            out.append((f"h_{d} in n = {n}", h))
            if 0 < d < n:
                out.append((f"-h_{d} in n = {n}", -h))
    out.append(("isoparametric", assemble_from_normal_form(data.isoparametric_data())))
    out.append(("fkm_1_4", data.fkm_1_4()))
    out.append(("involution", assemble_from_normal_form(data.involution_data())))
    return out


SWEEP = _sweep_inputs()


def qr_rotation(n: int, seed: int) -> RationalMatrix:
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return RationalMatrix.from_float(q * np.sign(np.diag(r)))


class TestSphereMaximize:
    def test_finds_global_maximum(self):
        f = make_canonical_quartic(4, 1)
        x = sphere_maximize(f)
        assert abs(sum(c * c for c in x) - 1.0) < 1e-12
        value = evaluate(f, [rational_from(c) for c in x])
        assert abs(float(value) - 1.0) < 1e-10

    def test_radial_power(self):
        x = sphere_maximize(make_primitive(4, 3, 0))
        assert abs(sum(c * c for c in x) - 1.0) < 1e-12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sphere_maximize(Polynomial.zero(3))

    def test_rejects_non_quartics(self):
        with pytest.raises(ValueError, match="quartic"):
            sphere_maximize(make_primitive(6, 3, 1))

    @settings(max_examples=30, deadline=None)
    @given(
        case=st.sampled_from(SWEEP),
        cayley=st.booleans(),
        seed=st.integers(min_value=0, max_value=10 ** 6),
    )
    def test_one_step_reaches_the_maximum(self, case, cayley, seed):
        """Rotated by a Cayley or a rationalized QR rotation, f = 1 at the
        returned point, where the tangential gradient vanishes."""
        _, f = case
        n = f.dimension
        f = substitute_linear(
            f, random_rational_orthogonal(n, seed) if cayley else qr_rotation(n, seed)
        )
        x = sphere_maximize(f)
        assert len(x) == n
        assert abs(sum(c * c for c in x) - 1.0) <= 1e-12
        point = [rational_from(c) for c in x]
        assert abs(float(evaluate(f, point)) - 1.0) <= 1e-12
        grad = [evaluate(partial_derivative(f, i), point) for i in range(n)]
        radial = sum(g * c for g, c in zip(grad, point))
        assert max(abs(float(g - radial * c)) for g, c in zip(grad, point)) <= 1e-12

    @pytest.mark.parametrize(
        "record", SPHERE_POINTS, ids=[r["name"] for r in SPHERE_POINTS]
    )
    def test_recorded_points(self, record):
        """Bit for bit the points in data/sphere_points.json (written by
        data/record_sphere_points.py)."""
        x = sphere_maximize(poly_from_text(record["poly"]))
        assert [float.hex(c) for c in x] == record["point"]

    def test_term_order_does_not_matter(self):
        for record in SPHERE_POINTS:
            f = poly_from_text(record["poly"])
            reordered = Polynomial(f.dimension, dict(reversed(list(f.terms.items()))))
            assert list(reordered.terms) != list(f.terms) or len(f.terms) == 1
            assert [float.hex(c) for c in sphere_maximize(reordered)] == record["point"]

    def test_minimum_is_returned_at_once(self):
        # -x_0^4 is -1 everywhere on the sphere: the tangential gradient at
        # e_0 is zero, and the extraction then fails on f and reads -f
        assert sphere_maximize(-Polynomial.monomial(1, (4,))) == (1.0,)
        assert sphere_maximize(-make_primitive(4, 3, 0)) == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("last", [1.0, 1.0 - 2.0 ** -40, 0.0, -1.0 + 2.0 ** -40, -1.0])
    def test_reflection_to_the_point(self, last):
        """The reflection sends e_n to +-v and stays orthogonal to roundoff,
        also next to e_n and -e_n."""
        rest = math.sqrt(1.0 - last * last)
        v = np.array([rest * 0.6, rest * 0.8, last])
        h = np.array(_householder_to_last(tuple(v)))
        assert np.abs(h.T @ h - np.eye(3)).max() <= 4e-16
        column = h[:, -1]
        assert min(np.abs(column - v).max(), np.abs(column + v).max()) <= 4e-16

    def test_past_the_float_range(self):
        f = Polynomial(2, {(4, 0): 10 ** 400, (0, 4): 1})
        with pytest.raises(ValueError, match="float range"):
            extract_normal_form(f, None)


def rational_from(value: float):
    return rational(*float(value).as_integer_ratio())


class TestFloatExtraction:
    def test_rotated_canonical(self):
        f = make_canonical_quartic(4, 1)
        u = RationalMatrix.from_float(
            givens(4, 0, 3, 0.7) @ givens(4, 1, 2, 1.1) @ givens(4, 0, 2, 0.4)
        )
        nf = extract_normal_form(substitute_linear(f, u), None)
        assert nf.arithmetic == "float"
        assert nf.extraction_residual < 1e-9
        assert (nf.p, nf.q) == (2, 1)
        assert all(float(a.max_abs()) < 1e-9 for a in nf.pencil)

    def test_plain_normal_position_float(self):
        nf = extract_normal_form(make_canonical_quartic(3, 1), None)
        assert nf.arithmetic == "float"
        assert nf.extraction_residual < 1e-9

    def test_maximizer_next_to_last_axis(self):
        # the rotated involution peaks within 1e-4 of e_n; a reflection built
        # from e_n - v there left a residual of 1.4e-13
        record = next(r for r in SPHERE_POINTS if r["name"] == "involution_qr")
        assert float.fromhex(record["point"][-1]) > 1.0 - 1e-4
        nf = extract_normal_form(poly_from_text(record["poly"]), None)
        assert (nf.p, nf.q) == (2, 1)
        assert nf.extraction_residual < 1e-14

    def test_structure_violation_is_evidence(self):
        with pytest.raises(NotEikonalEvidence):
            extract_normal_form(Polynomial.monomial(2, (4, 0)), None)

    def test_json_dict_round_trip_fields(self):
        nf = identity_extract(assemble_from_normal_form(data.involution_data()))
        payload = nf.to_json_dict()
        assert payload["p"] == 2 and payload["q"] == 1
        assert payload["arithmetic"] == "exact"
        assert payload["pencil"][0][0][0] == "1"
        assert payload["theta0"].startswith("n 3")


class TestSplitTheta:
    def test_splits_by_eta_degree(self):
        theta = Polynomial(
            3,
            {(4, 0, 0): 1, (2, 0, 2): 5, (2, 1, 1): 7, (0, 0, 4): 2,
             (3, 1, 0): 3},
        )
        theta0, theta2, theta3, theta4 = split_theta(theta, 2, 1)
        assert theta4 == Polynomial(3, {(4, 0, 0): 1, (3, 1, 0): 3})
        assert theta3 == Polynomial(3, {(2, 1, 1): 7})
        assert theta2 == Polynomial(3, {(2, 0, 2): 5})
        assert theta0 == Polynomial(3, {(0, 0, 4): 2})

    def test_xi_linear_component_is_evidence(self):
        theta = Polynomial(3, {(1, 0, 3): 1})
        with pytest.raises(NotEikonalEvidence):
            split_theta(theta, 2, 1)

    def test_tolerance_admits_tiny_debris(self):
        theta = Polynomial(3, {(1, 0, 3): rational(1, 10 ** 12), (4, 0, 0): 1})
        theta0, theta2, theta3, theta4 = split_theta(theta, 2, 1, tol=1e-9)
        assert theta4 == Polynomial(3, {(4, 0, 0): 1})

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            split_theta(Polynomial.zero(3), 1, 1)


def test_float_routes_run_without_numpy():
    # eikq needs only the standard library at run time: with numpy made
    # unimportable, both symmetric eigenproblems (the Laplacian's spectrum
    # and the float diagonalization of phi) still run
    import subprocess
    import sys

    import eikq

    script = """
import sys
sys.modules["numpy"] = None
from eikq.classifier import laplacian_signature
from eikq.constructors import make_canonical_quartic
from eikq.matrices import random_rational_orthogonal
from eikq.normalform import extract_normal_form
from eikq.polyring import substitute_linear
u = random_rational_orthogonal(5, 3)
f = substitute_linear(make_canonical_quartic(5, 2), u)
print([m for _, m in laplacian_signature(f, rotation=u)])
nf = extract_normal_form(f)
print(nf.arithmetic, float(nf.extraction_residual) < 1e-12)
"""
    env = {"PYTHONPATH": str(Path(eikq.__file__).parents[1]), "PATH": ""}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "[2, 3]\nfloat True\n"
