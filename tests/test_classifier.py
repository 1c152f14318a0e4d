"""Tests for the quartic classifier: branch coverage, congruence helpers,
Laplacian signatures, numeric verdicts, and report determinism."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _data as data
import _oracles as oracles
import eikq.classifier as classifier_module
import eikq.normalform as normalform_module
from eikq.analysis import check_eikonal, check_pencil
from eikq.classifier import (
    SCHEMA_VERSION,
    VERDICT_INCONCLUSIVE,
    VERDICT_ISOPARAMETRIC,
    VERDICT_NOT_EIKONAL,
    VERDICT_PRIMITIVE,
    ClassificationReport,
    classify,
    congruent_primitive,
    laplacian_signature,
)
from eikq.constructors import (
    NormalFormData,
    assemble_from_normal_form,
    make_canonical_quartic,
    make_primitive,
)
from eikq.matrices import RationalMatrix, random_rational_orthogonal
from eikq.normalform import (
    NotEikonalEvidence,
    extract_normal_form,
    obtain_normal_form,
    rotate_if_eikonal,
)
from eikq.pencils import tau_polynomials
from eikq.polyring import (
    Polynomial,
    laplacian,
    radial_power,
    rational,
    substitute_linear,
)


class TestClassifyExact:
    def test_corpus(self):
        for f, (verdict, fields) in zip(data.corpus(), data.CORPUS_EXPECTED):
            report = classify(f)
            assert report.verdict == verdict
            assert report.arithmetic == "exact"
            assert report.residual == 0.0
            for key, value in fields.items():
                assert getattr(report, key) == value, (key, report)

    def test_canonical_grid(self):
        for n in range(2, 7):
            for k in range(n // 2 + 1):
                report = classify(make_canonical_quartic(n, k))
                assert report.verdict == VERDICT_PRIMITIVE
                assert report.dim_h == k

    def test_folding_above_half(self):
        # dim H = 4 in R^5 is congruent to dim H = 1
        report = classify(make_primitive(4, 5, 4))
        assert report.dim_h == 1

    def test_negated_input(self):
        report = classify(-make_canonical_quartic(4, 1))
        assert report.verdict == VERDICT_PRIMITIVE
        assert report.dim_h == 1
        assert report.arithmetic == "exact"

    def test_single_variable(self):
        report = classify(Polynomial.monomial(1, (4,)))
        assert report.verdict == VERDICT_PRIMITIVE
        assert report.dim_h == 0

    def test_isoparametric_report(self):
        report = classify(assemble_from_normal_form(data.isoparametric_data()))
        assert report.verdict == VERDICT_ISOPARAMETRIC
        assert (report.p, report.q) == (3, 2)
        assert (report.m1, report.m2) == (1, 1)
        assert (report.nu, report.mu) == (1, 1)
        assert report.laplacian_constant == "0"

    def test_q1_identity_pencil(self):
        # A = I is an involution: raw dim H = (p + trace)/2 + 1 = 3, folds to 1
        d = NormalFormData(2, 1, (RationalMatrix.identity(2),), Polynomial.zero(3))
        f = assemble_from_normal_form(d)
        report = classify(f)
        assert report.verdict == VERDICT_PRIMITIVE
        assert report.dim_h == 1

    def test_q1_negated_identity_pencil(self):
        d = NormalFormData(
            2, 1, (RationalMatrix.identity(2).scale(-1),), Polynomial.zero(3)
        )
        report = classify(assemble_from_normal_form(d))
        assert report.verdict == VERDICT_PRIMITIVE
        assert report.dim_h == 1  # raw (p - 2)/2 + 1 = 1

    def test_rotation_argument(self):
        f = assemble_from_normal_form(data.involution_data())
        u = random_rational_orthogonal(4, 5)
        rotated = classify(substitute_linear(f, u), rotation=u.transpose())
        assert rotated.to_json_dict() == classify(f).to_json_dict()

    @pytest.mark.xfail(
        strict=True, raises=ValueError,
        reason="Gram-Schmidt on the row-reduced kernel finds no rational "
        "orthonormal eigenbasis of phi, though one exists",
    )
    def test_block_rotation_fixing_last_axis(self):
        # diag(W, 1) is exactly orthogonal and keeps e_6, a maximizer with f = 1
        w = random_rational_orthogonal(5, 1)
        rows = [list(w.row(i)) + [0] for i in range(5)] + [[0] * 5 + [1]]
        report = classify(make_canonical_quartic(6, 2), rotation=RationalMatrix(rows))
        assert report.verdict == VERDICT_PRIMITIVE
        assert report.dim_h == 2
        assert report.arithmetic == "exact"

    def test_negated_balanced_primitive(self):
        # -h_3 in R^6 has laplacian 16 |x|^2, that is (m1, m2) = (0, 2): primitive
        report = classify(-make_primitive(4, 6, 3))
        assert report.verdict == VERDICT_PRIMITIVE
        assert report.dim_h == 3
        assert report.arithmetic == "exact"

    def test_exact_only_needs_position_or_rotation(self):
        f = make_canonical_quartic(4, 1)
        g = substitute_linear(f, random_rational_orthogonal(4, 7))
        with pytest.raises(ValueError, match="rotation"):
            classify(g, allow_float=False)

    def test_non_quartic_rejected(self):
        with pytest.raises(ValueError):
            classify(Polynomial.monomial(2, (2, 0)))
        with pytest.raises(ValueError):
            classify(Polynomial.zero(3))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_congruence_invariance_property(self, seed):
        f = make_canonical_quartic(4, 2)
        u = random_rational_orthogonal(4, seed)
        rotated = classify(substitute_linear(f, u), rotation=u.transpose())
        assert rotated.verdict == VERDICT_PRIMITIVE
        assert rotated.dim_h == 2
        assert rotated.arithmetic == "exact"


class TestClassifySign:
    """An isoparametric report describes the input itself.

    FKM(1, 4) has (m1, m2) = (1, 2) and laplacian(F) = 8 |x|^2; -F has the
    multiplicities swapped and the constant negated.  p, q, nu and mu are
    those of the input's own normal form: q = m1 + 1, nu = m2.
    """

    @staticmethod
    def check(f, report, m1_m2, constant, arithmetic):
        assert report.verdict == VERDICT_ISOPARAMETRIC
        assert report.arithmetic == arithmetic
        assert (report.m1, report.m2) == m1_m2
        assert report.laplacian_constant == constant
        assert laplacian(f) == rational(constant) * radial_power(f.dimension, 1)

    def test_fkm(self):
        f = data.fkm_1_4()
        report = classify(f)
        self.check(f, report, (1, 2), "8", "exact")
        assert (report.p, report.q, report.nu, report.mu) == (5, 2, 2, 1)

    def test_negated_fkm(self):
        f = -data.fkm_1_4()
        report = classify(f)
        self.check(f, report, (2, 1), "-8", "exact")
        assert (report.p, report.q, report.nu, report.mu) == (4, 3, 1, 2)

    def test_rotated_fkm_exact(self):
        # a Cayley rotation is rational and exactly orthogonal
        f = substitute_linear(data.fkm_1_4(), random_rational_orthogonal(8, 1))
        self.check(f, classify(f), (1, 2), "8", "exact")

    def test_float_rotated_fkm(self):
        import numpy as np

        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((8, 8)))
        f = substitute_linear(data.fkm_1_4(), RationalMatrix.from_float(q))
        report = classify(f)
        assert report.verdict == VERDICT_ISOPARAMETRIC
        assert report.arithmetic == "float"
        assert 0 < report.residual < 1e-9
        assert (report.m1, report.m2, report.laplacian_constant) == (1, 2, "8")
        assert (report.p, report.q, report.nu, report.mu) == (5, 2, 2, 1)


class TestNormalFormSecondProof:
    """The normal-form route, an independent proof of each isoparametric
    verdict: the exact normal form of f or of -f has a spectral pencil with
    2 nu = p + 1 - q, and its (q - 1, nu) is classify's (m1, m2), swapped
    when -f was read."""

    @staticmethod
    def cases():
        iso = assemble_from_normal_form(data.isoparametric_data())
        u = random_rational_orthogonal(6, 1)
        return {
            "iso_3_2_1": (iso, RationalMatrix.identity(6)),
            "fkm_1_4": (data.fkm_1_4(), RationalMatrix.identity(8)),
            "negated_fkm_1_4": (-data.fkm_1_4(), RationalMatrix.identity(8)),
            "rotated_iso_3_2_1": (substitute_linear(iso, u), u.transpose()),
        }

    @pytest.mark.parametrize(
        "name", ["iso_3_2_1", "fkm_1_4", "negated_fkm_1_4", "rotated_iso_3_2_1"]
    )
    def test_pencil_agrees_with_munzner(self, name):
        f, rotation = self.cases()[name]
        try:
            nf, negated = extract_normal_form(f, rotation), False
        except ValueError:
            nf, negated = extract_normal_form(-f, rotation), True
        pencil = check_pencil(nf.pencil, nf.p)
        assert pencil.spectral
        assert 2 * pencil.nu == nf.p + 1 - nf.q
        pair = (nf.q - 1, pencil.nu)
        report = classify(f)
        assert (report.verdict, report.arithmetic) == (VERDICT_ISOPARAMETRIC, "exact")
        assert (report.m1, report.m2) == (pair[::-1] if negated else pair)


def _float_rotated(f: Polynomial, seed: int) -> Polynomial:
    import numpy as np

    n = f.dimension
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return substitute_linear(f, RationalMatrix.from_float(q * np.sign(np.diag(r))))


class TestCertificateSecondProof:
    """The float normal-form route, an independent proof of each float
    primitive verdict: the certificate's dim_h is the one read off the
    normal form of f or of -f at a numeric maximizer, where a zero pencil
    gives d = p + 1 and a q = 1 involution d = (p + tr A)/2 + 1."""

    @staticmethod
    def normal_form_dim_h(f: Polynomial) -> int:
        try:
            nf = extract_normal_form(f, None)
        except NotEikonalEvidence:
            nf = extract_normal_form(-f, None)
        n, p = f.dimension, nf.p
        if all(a.max_abs() <= 1e-9 for a in nf.pencil):
            d = p + 1
        else:
            assert nf.q == 1
            d = (p + round(float(nf.pencil[0].trace()))) // 2 + 1
        return min(d, n - d)

    def check(self, f: Polynomial) -> ClassificationReport:
        report = classify(f)
        assert (report.verdict, report.arithmetic) == (VERDICT_PRIMITIVE, "float")
        assert (report.p, report.q) == (None, None)
        assert 0 < report.residual < 1e-9
        assert report.dim_h == self.normal_form_dim_h(f)
        return report

    @pytest.mark.parametrize("n", range(2, 7))
    def test_rotated_primitive(self, n):
        for d in range(n + 1):
            for sign in (1, -1):
                f = _float_rotated(sign * make_primitive(4, n, d), 10 * n + d)
                assert self.check(f).dim_h == min(d, n - d)

    @pytest.mark.parametrize("plant", ["involution", "zero_pencil"])
    def test_rotated_plant(self, plant):
        f = assemble_from_normal_form(getattr(data, f"{plant}_data")())
        for sign in (1, -1):
            self.check(_float_rotated(sign * f, 7))

    def test_outcomes_kept(self):
        near = make_canonical_quartic(3, 1) + rational(1, 10 ** 8) * Polynomial.monomial(
            3, (4, 0, 0)
        )
        assert classify(near).verdict == VERDICT_INCONCLUSIVE
        fkm = classify(_float_rotated(data.fkm_1_4(), 3))
        assert (fkm.verdict, fkm.arithmetic) == (VERDICT_ISOPARAMETRIC, "float")
        radial = -(make_primitive(4, 3, 0) + rational(1, 10 ** 12) * Polynomial.monomial(
            3, (4, 0, 0)
        ))
        report = classify(radial)
        assert (report.verdict, report.arithmetic, report.dim_h) == (
            VERDICT_PRIMITIVE, "float", 0)

    def test_rotation_with_an_inexact_input(self):
        # a rotation is read exactly only with an exactly eikonal f; with an f
        # eikonal within tol it is validated, and the certificate decides
        f = make_canonical_quartic(3, 1) + rational(1, 10 ** 12) * Polynomial.monomial(
            3, (0, 0, 4)
        )
        identity = RationalMatrix.identity(3)
        report = classify(f, rotation=identity)
        assert report == classify(f)
        assert (report.verdict, report.arithmetic, report.dim_h) == (
            VERDICT_PRIMITIVE, "float", 1)
        with pytest.raises(ValueError, match="exactly orthogonal"):
            classify(f, rotation=identity.scale(2))
        with pytest.raises(ValueError, match="^--exact needs an exactly eikonal f, but"):
            classify(f, rotation=identity, allow_float=False)


def _perturbed(f: Polynomial, exponent: int) -> Polynomial:
    """f plus 10^-exponent x_0^2 x_{n-1}^2 (10^-exponent x_0^4 when n = 1)."""
    mono = [0] * f.dimension
    mono[0] += 2
    mono[-1] += 2
    return f + rational(1, 10 ** exponent) * Polynomial.monomial(f.dimension, tuple(mono))


class TestRotatedEikonalGate:
    """With a valid rotation R the exact zero test runs on f(R x); every
    report must be the one the gate on f alone gives."""

    @settings(max_examples=30, deadline=None)
    @given(
        index=st.integers(min_value=0, max_value=len(data.corpus()) - 1),
        seed=st.integers(min_value=0, max_value=10 ** 6),
        exponent=st.sampled_from([None, 2, 12, 40]),
    )
    def test_zero_test_is_rotation_invariant(self, index, seed, exponent):
        f = data.corpus()[index]
        if exponent is not None:
            f = _perturbed(f, exponent)
        u = random_rational_orthogonal(f.dimension, seed)
        exact = check_eikonal(f, 4).is_zero
        assert exact == (exponent is None)
        g = substitute_linear(f, u)
        assert check_eikonal(g, 4).is_zero == exact
        # the classify-style input: g with the rotation that undoes u
        back = rotate_if_eikonal(g, u.transpose())
        assert (back == f) if exact else back is None

    def test_invalid_rotation_is_not_used(self):
        f = make_canonical_quartic(4, 1)
        identity = RationalMatrix.identity(4)
        assert rotate_if_eikonal(f, identity) == f
        assert rotate_if_eikonal(f, None) is None
        assert rotate_if_eikonal(f, identity.scale(2)) is None
        assert rotate_if_eikonal(f, RationalMatrix.identity(3)) is None

    @staticmethod
    def f_gate_report(monkeypatch, f, rotation, **options):
        """classify with the zero test made on f: what the gate on f alone gives."""

        def zero_test_on_f(f, rotation):
            return substitute_linear(f, rotation) if check_eikonal(f, 4).is_zero else None

        with monkeypatch.context() as patch:
            patch.setattr(classifier_module, "rotate_if_eikonal", zero_test_on_f)
            return classify(f, rotation, **options)

    @pytest.mark.parametrize("exponent", [None, 3, 12], ids=["exact", "perturbed", "within_tol"])
    def test_reports_match_the_f_gate(self, monkeypatch, exponent):
        for index, f in enumerate(data.corpus()):
            if exponent is not None:
                f = _perturbed(f, exponent)
            u = random_rational_orthogonal(f.dimension, 40 + index)
            g, back = substitute_linear(f, u), u.transpose()
            report = classify(g, back)
            assert report.to_json_dict() == self.f_gate_report(monkeypatch, g, back).to_json_dict()
            assert report.summary_lines() == self.f_gate_report(monkeypatch, g, back).summary_lines()
            if exponent is None:
                assert report.arithmetic == "exact"
            else:
                assert report.residual > 0

    def test_error_order(self):
        f = make_canonical_quartic(4, 1)
        far = _perturbed(f, 2)
        wrong_size, scaled = RationalMatrix.identity(3), RationalMatrix.identity(4).scale(2)
        # a non-eikonal f is reported before the rotation is looked at
        for rotation in (wrong_size, scaled):
            assert classify(far, rotation).verdict == VERDICT_NOT_EIKONAL
        with pytest.raises(ValueError, match="^rotation must be 4 x 4$"):
            classify(f, wrong_size)
        with pytest.raises(ValueError, match="^rotation must be exactly orthogonal$"):
            classify(f, scaled)
        with pytest.raises(ValueError, match="^rotation must be exactly orthogonal$"):
            classify(_perturbed(f, 12), scaled)
        # an isoparametric f too: the rotation is refused, as before
        iso = data.corpus()[9]
        with pytest.raises(ValueError, match="^rotation must be 6 x 6$"):
            classify(iso, RationalMatrix.identity(4))

    @pytest.mark.parametrize("exponent", [None, 12, 3], ids=["exact", "within_tol", "far"])
    def test_rotation_checked_once(self, monkeypatch, exponent):
        checked = []
        real = RationalMatrix.is_orthogonal

        def counting(matrix):
            checked.append(matrix)
            return real(matrix)

        f = make_canonical_quartic(4, 1)
        if exponent is not None:
            f = _perturbed(f, exponent)
        u = random_rational_orthogonal(4, 5)
        g, back = substitute_linear(f, u), u.transpose()
        monkeypatch.setattr(RationalMatrix, "is_orthogonal", counting)
        classify(g, back)
        # once, by the zero test on f(R x) or after the gate on f; never past the gate
        expected = [] if exponent == 3 else [back]
        assert checked == expected
        checked.clear()
        try:
            obtain_normal_form(g, back, allow_float=True, tol=1e-9)
        except NotEikonalEvidence:
            assert exponent == 3
        assert checked == expected

    def test_one_substitution_per_exact_rotated_call(self, monkeypatch):
        substituted, checked = [], []

        def counting_substitution(f, rotation):
            substituted.append(f)
            return substitute_linear(f, rotation)

        def counting_check(f, g):
            checked.append(f)
            return check_eikonal(f, g)

        monkeypatch.setattr(normalform_module, "substitute_linear", counting_substitution)
        monkeypatch.setattr(normalform_module, "check_eikonal", counting_check)
        monkeypatch.setattr(classifier_module, "check_eikonal", counting_check)
        # phi is already diagonal, +1 block first, so no second rotation is made
        corpus = data.corpus()
        for f in (corpus[0], corpus[3], corpus[7], corpus[8], make_primitive(4, 4, 3)):
            u = random_rational_orthogonal(f.dimension, f.dimension)
            g = substitute_linear(f, u)
            substituted.clear()
            checked.clear()
            report = classify(g, u.transpose())
            assert (report.verdict, report.arithmetic) == (VERDICT_PRIMITIVE, "exact")
            assert substituted == [g]
            # the zero test ran once, on the sparse f(R x), never on the dense g
            assert checked == [f]


class TestSignReadOffTheLastAxis:
    """The exact routes read the sign off g(e_n), g = f(R x) or f at the
    identity: one extraction of -g when it is -1, of g otherwise, and none at
    the identity when it is neither 1 nor -1."""

    @staticmethod
    def count_extractions(monkeypatch):
        calls = []
        real = normalform_module._extract

        def counting(g, rotation, tol):
            calls.append(tol)
            return real(g, rotation, tol)

        monkeypatch.setattr(normalform_module, "_extract", counting)
        return calls

    @pytest.mark.parametrize("sign", [1, -1], ids=["h", "minus_h"])
    @pytest.mark.parametrize("n,d", [(4, 1), (5, 2)])
    def test_rotated_input_without_a_rotation(self, monkeypatch, sign, n, d):
        g = substitute_linear(sign * make_canonical_quartic(n, d), random_rational_orthogonal(n, 3))
        assert g.coefficient((0,) * (n - 1) + (4,)) not in (1, -1)
        calls = self.count_extractions(monkeypatch)
        report = classify(g)
        assert (report.verdict, report.arithmetic, report.dim_h) == (VERDICT_PRIMITIVE, "float", min(d, n - d))
        with pytest.raises(ValueError, match="--exact needs f in normal-form position"):
            obtain_normal_form(g, None, allow_float=False, tol=1e-9)
        assert calls == []

    @pytest.mark.parametrize("rotated", [False, True], ids=["normal_position", "rotated"])
    def test_negated_input_is_extracted_once(self, monkeypatch, rotated):
        f = -make_canonical_quartic(5, 2)
        rotation = None
        if rotated:
            u = random_rational_orthogonal(5, 3)
            f, rotation = substitute_linear(f, u), u.transpose()
        calls = self.count_extractions(monkeypatch)
        report = classify(f, rotation)
        assert (report.verdict, report.arithmetic, report.dim_h) == (VERDICT_PRIMITIVE, "exact", 2)
        assert calls == [0]
        calls.clear()
        nf, negated = obtain_normal_form(f, rotation, allow_float=False, tol=1e-9)
        assert (nf.arithmetic, negated) == ("exact", True)
        assert calls == [0]

    def test_negated_failure_names_its_own_reason(self):
        # -h_2(R x) is -1 at e_n, so -f(R x) = h_2(diag(W, 1) x) is read, and its
        # x_n^2 coefficient has no rational orthonormal eigenbasis
        w = random_rational_orthogonal(5, 1)
        rotation = RationalMatrix(
            [list(w.row(i)) + [rational(0)] for i in range(5)] + [[rational(0)] * 5 + [rational(1)]]
        )
        f = -make_canonical_quartic(6, 2)
        for decide in (classify, lambda f, r: obtain_normal_form(f, r, allow_float=True, tol=1e-9)):
            with pytest.raises(ValueError, match="^no rational orthonormal eigenbasis"):
                decide(f, rotation)


class TestClassifyNumeric:
    def test_blunt_rejection(self):
        report = classify(Polynomial.monomial(2, (4, 0)))
        assert report.verdict == VERDICT_NOT_EIKONAL
        assert report.arithmetic == "exact"
        assert report.residual == 48.0

    def test_inconclusive_band(self):
        f = make_canonical_quartic(3, 1) + rational(1, 10 ** 8) * Polynomial.monomial(
            3, (4, 0, 0)
        )
        report = classify(f)
        assert report.verdict == VERDICT_INCONCLUSIVE
        assert report.arithmetic == "float"
        assert 1e-9 < report.residual < 1e-6

    def test_float_path_on_rationalized_rotation(self):
        import numpy as np

        f = make_canonical_quartic(4, 1)
        angle = 0.9
        rot = np.eye(4)
        rot[0, 0] = rot[3, 3] = np.cos(angle)
        rot[0, 3] = -np.sin(angle)
        rot[3, 0] = np.sin(angle)
        g = substitute_linear(f, RationalMatrix.from_float(rot))
        report = classify(g)
        assert report.verdict == VERDICT_PRIMITIVE
        assert report.arithmetic == "float"
        assert report.residual < 1e-9
        assert report.dim_h == 1

    def test_near_exact_perturbation_accepted_as_float(self):
        f = make_canonical_quartic(3, 1) + rational(1, 10 ** 12) * Polynomial.monomial(
            3, (4, 0, 0)
        )
        report = classify(f)
        assert report.verdict == VERDICT_PRIMITIVE
        assert report.arithmetic == "float"
        assert 0 < report.residual < 1e-9

    def test_residual_below_float_range_stays_inexact(self):
        # the eikonal residual is nonzero but its float magnitude is 0.0,
        # so only the exact test of the residual keeps f off the exact route
        f = make_canonical_quartic(3, 1) + rational(1, 10 ** 400) * Polynomial.monomial(
            3, (2, 2, 0)
        )
        report = classify(f)
        assert report.verdict == VERDICT_PRIMITIVE
        assert report.arithmetic == "float"
        # the float certificate reads no normal form
        assert (report.p, report.q, report.dim_h) == (None, None, 1)
        # the certificate fits exactly here, and the exact eikonal deviation,
        # whose float image is 0.0, stays the residual
        assert (report.residual, report.exact_residual) == (0.0, rational(32, 10 ** 400))


class TestCongruentPrimitive:
    @pytest.mark.parametrize(
        "n,d1,d2,expected",
        [
            (4, 1, 3, True),
            (4, 1, 1, True),
            (4, 1, 2, False),
            (4, 0, 4, True),
            (2, 0, 1, False),
            (6, 2, 4, True),
            (6, 2, 3, False),
        ],
    )
    def test_table(self, n, d1, d2, expected):
        assert congruent_primitive(n, d1, d2) is expected

    def test_validation(self):
        with pytest.raises(ValueError):
            congruent_primitive(0, 0, 0)
        with pytest.raises(ValueError):
            congruent_primitive(3, 4, 1)
        with pytest.raises(ValueError):
            congruent_primitive(3, 1, -1)


class TestLaplacianSignature:
    def test_diagonal_exact_values(self):
        # laplacian of the n = 6, k = 2 canonical quartic is -32 |x_K|^2
        sig = laplacian_signature(make_canonical_quartic(6, 2))
        assert sig == ((-32, 2), (0, 4))

    def test_congruent_forms_share_signature(self):
        assert laplacian_signature(make_primitive(4, 6, 2)) == laplacian_signature(
            make_primitive(4, 6, 4)
        )
        assert laplacian_signature(make_primitive(4, 6, 2)) != laplacian_signature(
            make_primitive(4, 6, 3)
        )

    def test_harmonic_quartic(self):
        f = assemble_from_normal_form(data.isoparametric_data())
        assert laplacian_signature(f) == ((0, 6),)

    def test_agreement_with_congruence_predicate(self):
        for n in range(2, 7):
            sigs = {d: laplacian_signature(make_primitive(4, n, d))
                    for d in range(n + 1)}
            for d1 in range(n + 1):
                for d2 in range(n + 1):
                    same = sigs[d1] == sigs[d2]
                    assert same == congruent_primitive(n, d1, d2)

    def test_closed_form_spectrum(self):
        # eigenvalue 16d + 8 - 12n on H, 4n - 16d + 8 on the complement
        n, d = 7, 2
        sig = laplacian_signature(make_primitive(4, n, d))
        assert sig == ((16 * d + 8 - 12 * n, d), (4 * n - 16 * d + 8, n - d))

    def test_float_grouping_under_rotation(self):
        f = make_canonical_quartic(5, 1)
        u = random_rational_orthogonal(5, 13)
        exact = laplacian_signature(f)
        rotated = laplacian_signature(f, rotation=u)
        assert [m for _, m in rotated] == [m for _, m in exact]
        for (got, _), (want, _) in zip(rotated, exact):
            assert abs(float(got) - float(want)) < 1e-6

    def test_refuses_a_non_rotation(self):
        # a scaled identity would scale the spectrum: ((-384, 1), (128, 3))
        # against f's ((-24, 1), (8, 3)); the refusals are extract_normal_form's
        f = make_canonical_quartic(4, 1)
        assert laplacian_signature(f) == ((-24, 1), (8, 3))
        with pytest.raises(ValueError, match="^rotation must be exactly orthogonal$"):
            laplacian_signature(f, RationalMatrix.identity(4).scale(2))
        with pytest.raises(ValueError, match="^rotation must be 4 x 4$"):
            laplacian_signature(f, RationalMatrix.identity(3))

    def test_matches_sympy_laplacian(self):
        f = make_canonical_quartic(4, 1)
        lap = oracles.laplacian_sympy(f)
        import sympy

        xs = oracles.symbols(4)
        ours = laplacian_signature(f)
        expected = sorted(
            (sympy.Rational(lap.coeff(x ** 2)) for x in xs), key=float
        )
        flattened = [v for v, m in ours for _ in range(m)]
        assert [float(e) for e in expected] == [float(v) for v in flattened]

    def test_non_quartic_rejected(self):
        with pytest.raises(ValueError):
            laplacian_signature(Polynomial.monomial(2, (2, 0)))


class TestTau:
    def test_zero_pencil(self):
        taus = tau_polynomials(data.zero_pencil_data().pencil, 2)
        assert all(tau.is_zero for tau in taus)

    def test_nonzero_pencil(self):
        taus = tau_polynomials(data.isoparametric_data().pencil, 3)
        assert max(float(tau.max_abs_coefficient()) for tau in taus) == 2.0  # 2 xi1 xi2
        assert taus[0] == Polynomial(3, {(2, 0, 0): 1, (0, 2, 0): -1})


class TestReports:
    def test_json_key_order(self):
        report = classify(make_canonical_quartic(3, 1))
        payload = report.to_json_dict()
        assert list(payload)[0] == "schema_version"
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_json_deterministic(self):
        a = json.dumps(classify(make_canonical_quartic(4, 2)).to_json_dict())
        b = json.dumps(classify(make_canonical_quartic(4, 2)).to_json_dict())
        assert a == b

    def test_summary_lines(self):
        report = classify(assemble_from_normal_form(data.isoparametric_data()))
        lines = report.summary_lines()
        assert lines[0] == "verdict: isoparametric"
        assert any("(m1, m2) = (1, 1)" in line for line in lines)

    def test_report_is_frozen(self):
        report = ClassificationReport(VERDICT_PRIMITIVE, 3, "exact", 0.0)
        with pytest.raises(Exception):
            report.verdict = "other"
