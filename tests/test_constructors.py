"""Tests for the construction routes: primitive family, canonical quartics,
normal-form data, assembly, serialization, and the pencil search."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _data as data
import _oracles as oracles
from eikq import analysis, constructors
from eikq.analysis import check_eikonal, check_structure_identities
from eikq.constructors import (
    InfeasibleParameters,
    NormalFormData,
    assemble_from_normal_form,
    make_canonical_quartic,
    make_primitive,
    normal_form_data_from_text,
    normal_form_data_to_text,
    search_isoparametric_pencil,
)
from eikq.matrices import RationalMatrix
from eikq.pencils import theta3_basis
from eikq.polyring import (
    PolyTextError,
    Polynomial,
    block_radial,
    extend_dimension,
    laplacian,
    radial_power,
    rational,
    substitute_linear,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


class TestMakePrimitive:
    # Frozen from the sympy complex-expansion oracle: re((|xi| + i|eta|)^6)
    # with dim H = 1 in R^4 has 20 terms; these six pin the alternating
    # binomial pattern and the cross-block coefficients.
    FROZEN_G6_N4_D1 = {
        (6, 0, 0, 0): Fraction(1),
        (4, 2, 0, 0): Fraction(-15),
        (2, 2, 2, 0): Fraction(30),
        (0, 2, 2, 2): Fraction(-6),
        (2, 4, 0, 0): Fraction(15),
        (0, 6, 0, 0): Fraction(-1),
    }

    def test_frozen_g6_coefficients(self):
        h = make_primitive(6, 4, 1)
        assert len(h.terms) == 20
        for mono, expected in self.FROZEN_G6_N4_D1.items():
            assert h.coefficient(mono) == expected

    def test_degenerate_subspaces(self):
        # dim H = 0 leaves only the |eta|^(2k) block with the top sign
        assert make_primitive(4, 2, 0) == radial_power(2, 2)
        assert make_primitive(2, 2, 0) == -radial_power(2, 1)
        assert make_primitive(6, 2, 0) == -radial_power(2, 3)
        # dim H = n is the pure |xi|^g power
        assert make_primitive(4, 3, 3) == radial_power(3, 2)

    def test_quartic_is_canonical_split(self):
        # |xi|^4 - 6 |xi|^2 |eta|^2 + |eta|^4 = |x|^4 - 8 |xi|^2 |eta|^2
        for n in range(2, 11):
            for d in range(n // 2 + 1):
                split = radial_power(n, 2) - 8 * block_radial(n, range(d)) * block_radial(
                    n, range(d, n)
                )
                assert make_primitive(4, n, d) == make_canonical_quartic(n, d) == split

    @pytest.mark.parametrize(
        "g,n,d",
        [(1, 3, 1), (2, 4, 2), (3, 3, 1), (4, 5, 3), (6, 3, 2), (6, 4, 1),
         (5, 3, 1), (7, 2, 1), (8, 4, 2)],
    )
    def test_matches_complex_expansion_oracle(self, g, n, d):
        h = make_primitive(g, n, d)
        expected = oracles.primitive_expected(g, n, d)
        got = {m: Fraction(int(c.numerator), int(c.denominator))
               for m, c in h.terms.items()}
        assert got == expected

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 6])
    def test_eikonal_small_grid(self, g):
        for n in (2, 3, 4):
            dims = [1] if g % 2 else range(n + 1)
            for d in dims:
                assert check_eikonal(make_primitive(g, n, d), g).is_zero

    def test_block_swap_symmetry(self):
        # exchanging the xi and eta blocks sends h_d to (-1)^(g/2) h_(n-d)
        for g, n, d in ((4, 5, 2), (2, 4, 1), (6, 4, 1)):
            perm = [[0] * n for _ in range(n)]
            for i in range(n):
                perm[i][(i + n - d) % n] = 1
            swapped = substitute_linear(make_primitive(g, n, d), RationalMatrix(perm))
            sign = -1 if (g // 2) % 2 else 1
            assert swapped == sign * make_primitive(g, n, n - d)

    def test_cubic_laplacian_constant(self):
        # laplacian of x^3 - 3 x |eta|^2 is 6 (2 - n) x, zero exactly at n = 2
        for n in (2, 3, 5, 10):
            h = make_primitive(3, n, 1)
            assert laplacian(h) == 6 * (2 - n) * Polynomial.variable(n, 0)
            expected = oracles.laplacian_sympy(h)
            assert oracles.to_sympy(laplacian(h)) == expected

    def test_validation(self):
        # each argument is checked in turn, with its own message: g, n, dimh,
        # then odd g against dimh
        g_message = "^degree g must be a positive integer$"
        n_message = "^ambient dimension n must be a positive integer$"
        dimh_message = "^dimh must lie between 0 and n$"
        for args, message in (
            ((0, 3, 1), g_message),
            ((0, 0, 9), g_message),
            ((2.0, 3, 1), g_message),
            ((4, 0, 0), n_message),
            ((2, 0, 9), n_message),
            ((4, 3, 4), dimh_message),
            ((4, 3, -1), dimh_message),
            ((3, 2, 9), dimh_message),
            ((3, 4, 2), "^odd degree requires dimh == 1$"),
        ):
            with pytest.raises(ValueError, match=message):
                make_primitive(*args)

    @settings(max_examples=30, deadline=None)
    @given(
        g=st.sampled_from([2, 4, 6]),
        n=st.integers(min_value=2, max_value=5),
        d=st.integers(min_value=0, max_value=5),
    )
    def test_eikonal_property(self, g, n, d):
        if d > n:
            d = n
        assert check_eikonal(make_primitive(g, n, d), g).is_zero


class TestMakeCanonicalQuartic:
    def test_explicit_form(self):
        f = make_canonical_quartic(3, 1)
        head = Polynomial.variable(3, 0) ** 2
        tail = Polynomial.variable(3, 1) ** 2 + Polynomial.variable(3, 2) ** 2
        assert f == radial_power(3, 2) - 8 * head * tail

    def test_k_zero_is_radial(self):
        assert make_canonical_quartic(5, 0) == radial_power(5, 2)

    def test_eikonal(self):
        for n in range(2, 7):
            for k in range(n // 2 + 1):
                assert check_eikonal(make_canonical_quartic(n, k), 4).is_zero

    def test_validation(self):
        with pytest.raises(ValueError):
            make_canonical_quartic(0, 0)
        with pytest.raises(ValueError):
            make_canonical_quartic(4, 3)  # k must stay below n // 2
        with pytest.raises(ValueError):
            make_canonical_quartic(4, -1)


class TestNormalFormData:
    def test_valid(self):
        d = data.involution_data()
        assert (d.p, d.q) == (2, 1)
        assert d.dimension == 3
        assert d.ambient_dimension == 4

    def test_pencil_count_mismatch(self):
        with pytest.raises(ValueError, match="pencil matrices"):
            NormalFormData(2, 2, (RationalMatrix.zeros(2, 2),), Polynomial.zero(4))

    def test_pencil_must_be_symmetric(self):
        bad = RationalMatrix([[0, 1], [0, 0]])
        with pytest.raises(ValueError):
            NormalFormData(2, 1, (bad,), Polynomial.zero(3))

    def test_pencil_shape(self):
        with pytest.raises(ValueError):
            NormalFormData(3, 1, (RationalMatrix.zeros(2, 2),), Polynomial.zero(4))

    def test_theta3_ring(self):
        with pytest.raises(ValueError, match="p \\+ q variables"):
            NormalFormData(
                2, 1, (RationalMatrix.zeros(2, 2),), Polynomial.zero(4)
            )

    def test_theta3_block_degrees(self):
        # xi-degree 2, eta-degree 2 is homogeneous quartic but wrong blocks
        bad = Polynomial(3, {(2, 0, 2): 1})
        with pytest.raises(ValueError, match="xi-degree 3"):
            NormalFormData(2, 1, (RationalMatrix.zeros(2, 2),), bad)

    def test_theta3_inhomogeneous(self):
        bad = Polynomial(3, {(2, 1, 1): 1, (1, 0, 1): 1})
        with pytest.raises(ValueError):
            NormalFormData(2, 1, (RationalMatrix.zeros(2, 2),), bad)

    def test_negative_parameters(self):
        with pytest.raises(ValueError):
            NormalFormData(-1, 1, (), Polynomial.zero(0))


class TestAssemble:
    def test_involution_closed_form(self):
        assembled = assemble_from_normal_form(data.involution_data())
        assert assembled == data.closed_form_involution_quartic()

    def test_assembled_forms_are_eikonal(self):
        for d in (data.involution_data(), data.zero_pencil_data(),
                  data.isoparametric_data()):
            f = assemble_from_normal_form(d)
            assert f.dimension == d.ambient_dimension
            assert f.is_homogeneous(4)
            assert check_eikonal(f, 4).is_zero

    def test_isoparametric_is_harmonic(self):
        f = assemble_from_normal_form(data.isoparametric_data())
        assert laplacian(f).is_zero
        assert oracles.laplacian_sympy(f) == 0

    def test_eikonal_residual_matches_sympy(self):
        # same residual through an independent symbolic route
        f = assemble_from_normal_form(data.involution_data())
        assert oracles.eikonal_residual(f, 4) == 0
        g = assemble_from_normal_form(
            NormalFormData(2, 1, (RationalMatrix.identity(2).scale(2),),
                           Polynomial.zero(3))
        )
        ours = check_eikonal(g, 4).value
        assert oracles.to_sympy(ours) == oracles.eikonal_residual(g, 4)


class TestSerialization:
    def test_round_trip(self):
        for d in (data.involution_data(), data.isoparametric_data(),
                  data.zero_pencil_data()):
            text = normal_form_data_to_text(d)
            back = normal_form_data_from_text(text)
            assert back == d

    def test_header_layout(self):
        text = normal_form_data_to_text(data.involution_data())
        lines = text.splitlines()
        assert lines[0] == "2 1"
        assert lines[2] == "1 0"
        assert lines[3] == "0 -1"

    def test_comments_and_blanks_ignored(self):
        text = normal_form_data_to_text(data.involution_data())
        noisy = "# leading comment\n\n" + text.replace("2 1", "2 1  # header")
        assert normal_form_data_from_text(noisy) == data.involution_data()

    def test_empty_input(self):
        with pytest.raises(PolyTextError, match="empty"):
            normal_form_data_from_text("# only a comment\n")

    def test_bad_header_line_number(self):
        for text, message in [
            ("# title\n2\n", "header must be 'p q'"),
            ("# title\n2 x\n", "header must hold two integers"),
            ("# title\n2 -1\n", "p and q must be nonnegative"),
            ("# title\n-2 1\n", "p and q must be nonnegative"),
            # found once the data is built, and reported at the header line
            ("# title\n2 1\n1 2\n0 1\nn 3\n", "pencil matrix 0 is not symmetric"),
        ]:
            with pytest.raises(PolyTextError) as err:
                normal_form_data_from_text(text)
            assert str(err.value) == f"line 2: {message}"
            assert err.value.line_number == 2

    def test_theta3_error_keeps_input_line_number(self):
        text = "# normal form\n1 1\n\n# matrix\n1\n\n# theta3\nn 2\n1 x 1\n"
        with pytest.raises(PolyTextError, match="line 9: bad exponent") as err:
            normal_form_data_from_text(text)
        assert err.value.line_number == 9

    def test_bad_matrix_row_line_number(self):
        with pytest.raises(PolyTextError, match="line 3"):
            normal_form_data_from_text("2 1\n1 0\n0 -1 5\nn 3\n")
        # truncated as well: the bad row comes first in the input, so it is reported
        with pytest.raises(PolyTextError, match="^line 2: matrix row must hold 2 entries$"):
            normal_form_data_from_text("2 1\n1 2 3\n")

    def test_non_rational_entry(self):
        with pytest.raises(PolyTextError, match="rationals"):
            normal_form_data_from_text("2 1\n1 zero\n0 -1\nn 3\n")

    def test_truncated_input(self):
        with pytest.raises(PolyTextError, match="unexpected end"):
            normal_form_data_from_text("2 1\n1 0\n")

    def test_missing_theta3(self):
        with pytest.raises(PolyTextError, match="theta_3"):
            normal_form_data_from_text("2 1\n1 0\n0 -1\n")

    def test_theta3_wrong_ring(self):
        with pytest.raises(PolyTextError, match="3 variables"):
            normal_form_data_from_text("2 1\n1 0\n0 -1\nn 4\n")


class TestSearch:
    def test_infeasible_rank(self):
        with pytest.raises(InfeasibleParameters, match="rank"):
            search_isoparametric_pencil(1, 1, 1)

    def test_infeasible_trace_relation(self):
        with pytest.raises(InfeasibleParameters, match="p \\+ 1 - q"):
            search_isoparametric_pencil(4, 1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            search_isoparametric_pencil(-1, 1, 0)
        with pytest.raises(ValueError):
            search_isoparametric_pencil(2, 1, 0, budget=0)

    def test_zero_pencil_family_found(self):
        hits = search_isoparametric_pencil(1, 1, 0)
        assert len(hits) >= 1
        for hit in hits:
            assert hit.pencil[0].is_zero()
            assert check_eikonal(assemble_from_normal_form(hit), 4).is_zero

    def test_involution_family_found(self):
        hits = search_isoparametric_pencil(2, 1, 1)
        assert len(hits) >= 1
        assert any(not h.pencil[0].is_zero() for h in hits)
        for hit in hits:
            assert check_eikonal(assemble_from_normal_form(hit), 4).is_zero
            assert check_structure_identities(hit).all_zero

    def test_budget_cuts_off_deterministically(self):
        assert search_isoparametric_pencil(3, 2, 1, budget=1) == []

    def test_results_deterministic(self):
        first = search_isoparametric_pencil(2, 1, 1)
        second = search_isoparametric_pencil(2, 1, 1)
        assert first == second

    def test_empty_pencil_is_admissible(self):
        for p in (3, 0):
            hits = search_isoparametric_pencil(p, 0, 0)
            assert len(hits) == 1
            assert hits[0].pencil == ()
            assert assemble_from_normal_form(hits[0]) == make_canonical_quartic(p + 1, 0)

    def test_seed_matrices_are_distinct(self):
        for (p, nu), count in {(4, 2): 11, (6, 3): 95, (3, 1): 6}.items():
            seeds = constructors._seed_matrices(p, nu)
            assert len(seeds) == len({m.entries for m in seeds}) == count

    def test_screens_each_seed_set_once(self, monkeypatch):
        screened = []
        real = analysis.check_pencil

        def record(pencil, p):
            screened.append(tuple(m.entries for m in pencil))
            return real(pencil, p)

        monkeypatch.setattr(analysis, "check_pencil", record)
        hits = search_isoparametric_pencil(3, 2, 1)
        monkeypatch.undo()
        seeds = [m.entries for m in constructors._seed_matrices(3, 1)]
        # each unordered pair of distinct seeds, once, as raw seeds in index order
        assert sorted(screened) == sorted(
            (seeds[i], seeds[j]) for i in range(len(seeds)) for j in range(i + 1, len(seeds))
        )
        assert len(screened) == 15
        (record_3_2_1,) = [r for r in GOLDEN if r["name"] == "search_3_2_1_full"]
        expected = json.loads(record_3_2_1["stdout"])["candidates"]
        assert len(expected) == 66
        assert [normal_form_data_to_text(h) for h in hits] == expected

    def test_conjugations_built_once_per_p(self, monkeypatch):
        built = []
        real = constructors.random_rational_orthogonal

        def record(n, seed):
            built.append((n, seed))
            return real(n, seed)

        monkeypatch.setattr(constructors, "random_rational_orthogonal", record)
        constructors._conjugations.cache_clear()
        first = search_isoparametric_pencil(3, 2, 1)
        second = search_isoparametric_pencil(3, 2, 1)
        assert built == [(3, 1), (3, 2), (3, 3)]
        assert len(first) == 66
        assert second == first

    def test_budget_prefixes(self):
        budgets = (1, 2, 40, 150, 180, 195, 400, 10 ** 6)
        results = [search_isoparametric_pencil(3, 2, 1, budget=b) for b in budgets]
        assert len(results[-1]) == 66
        for shorter, longer in zip(results, results[1:]):
            assert longer[: len(shorter)] == shorter
        assert len({len(r) for r in results}) > 3


def _admissible_pencils(p: int, q: int, nu: int, count: int, monkeypatch) -> list:
    """The first `count` seed sets that search(p, q, nu) screens as admissible."""
    passed = []
    real = analysis.check_pencil

    def record(pencil, p):
        report = real(pencil, p)
        if report.passed:
            passed.append(pencil)
        return report

    monkeypatch.setattr(analysis, "check_pencil", record)
    search_isoparametric_pencil(p, q, nu)
    monkeypatch.undo()
    return passed[:count]


def _grid_verdicts(p: int, pencil) -> list[tuple[bool, bool]]:
    """(quadratic decision, check_eikonal of the assembled quartic) per grid point."""
    q = len(pencil)
    basis = theta3_basis(pencil, p)
    zero3 = Polynomial.zero(p + q)
    f0 = assemble_from_normal_form(NormalFormData(p, q, pencil, zero3))
    lifted = [extend_dimension(8 * b, p + q + 1) for b in basis]
    decide = constructors._grid_decider(f0, lifted, check_eikonal(f0, 4).is_zero)
    verdicts = []
    for coeffs in product(constructors._THETA3_COEFFICIENTS, repeat=len(basis)):
        ks = tuple(int(c * constructors._GRID_DENOMINATOR) for c in coeffs)
        theta3 = zero3
        for c, b in zip(coeffs, basis):
            theta3 = theta3 + 8 * c * b
        data_ = NormalFormData(p, q, pencil, theta3)
        verdicts.append((decide(ks), check_eikonal(assemble_from_normal_form(data_), 4).is_zero))
    return verdicts


class TestGridDecision:
    def test_grid_denominator_clears_every_coefficient(self):
        d = constructors._GRID_DENOMINATOR
        assert all((c * d).denominator == 1 for c in constructors._THETA3_COEFFICIENTS)
        assert any(c.denominator == d for c in constructors._THETA3_COEFFICIENTS)

    def test_matches_assembled_residual_on_admissible_pencils(self, monkeypatch):
        pencils = _admissible_pencils(3, 2, 1, 2, monkeypatch)
        assert len(pencils) == 2
        seen = set()
        for pencil in pencils:
            verdicts = _grid_verdicts(3, pencil)
            assert len(verdicts) == 11 ** len(theta3_basis(pencil, 3)) > 1
            for decided, exact in verdicts:
                assert decided == exact
                seen.add(exact)
        assert seen == {True, False}

    def test_matches_assembled_residual_with_empty_basis(self):
        cases = [
            (2, data.zero_pencil_data().pencil),  # hit
            (2, data.involution_data().pencil),  # hit
            (2, (RationalMatrix.diagonal([1, 0]),)),  # miss: passes the cube identity only
            (3, ()),  # the empty pencil, a hit
        ]
        outcomes = []
        for p, pencil in cases:
            assert theta3_basis(pencil, p) == []
            (verdict,) = _grid_verdicts(p, pencil)
            assert verdict[0] == verdict[1]
            outcomes.append(verdict[1])
        assert outcomes == [True, True, False, True]


def _block_diagonal(*blocks: RationalMatrix) -> RationalMatrix:
    size = sum(b.n_rows for b in blocks)
    entries = [[rational(0)] * size for _ in range(size)]
    start = 0
    for block in blocks:
        for i, row in enumerate(block.entries):
            entries[start + i][start:start + len(row)] = row
        start += block.n_rows
    return RationalMatrix(entries)


class TestOrbitRule:
    """The theta_3 = 0 quartic of (C^T A_sigma(i) C)_i is the seed set's
    composed with diag(C, P_sigma, 1), with a theta_3 basis of the same length."""

    @staticmethod
    def quartic(p, pencil):
        q = len(pencil)
        return assemble_from_normal_form(NormalFormData(p, q, pencil, Polynomial.zero(p + q)))

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_conjugated_pencil_is_the_seed_quartic_rotated(self, p):
        one = RationalMatrix.identity(1)
        swap = RationalMatrix([[0, 1], [1, 0]])
        for nu in range(1, p // 2 + 1):
            seeds = constructors._seed_matrices(p, nu)
            # every seed, then one seed pair in both orders, sigma and P_sigma
            cases = [((a,), (0,), one) for a in seeds]
            cases += [(tuple(seeds[:2]), (0, 1), RationalMatrix.identity(2)),
                      (tuple(seeds[:2]), (1, 0), swap)]
            for raw, order, perm in cases:
                f_raw = self.quartic(p, raw)
                basis_length = len(theta3_basis(raw, p))
                for conj in constructors._conjugations(p):
                    pencil = tuple(conj.transpose() @ raw[i] @ conj for i in order)
                    rotation = _block_diagonal(conj, perm, one)
                    assert self.quartic(p, pencil) == substitute_linear(f_raw, rotation)
                    assert len(theta3_basis(pencil, p)) == basis_length


def _reference_search(p: int, q: int, nu: int, budget: int) -> list[NormalFormData]:
    """The search without the orbit rule: every enumerated (pencil, grid point)
    screened by `check_pencil` on the pencil itself, assembled and run
    through `check_eikonal`, counted against `budget` as the search counts."""
    seeds = constructors._seed_matrices(p, nu)
    examined, hits, seen = 0, [], set()
    for conj in constructors._conjugations(p):
        conjugated = [conj.transpose() @ a @ conj for a in seeds]
        for idx in product(range(len(seeds)), repeat=q):
            if nu > 0 and q > 1 and len(set(idx)) != q:
                continue
            pencil = tuple(conjugated[i] for i in idx)
            key = tuple(m.entries for m in pencil)
            if key in seen:
                continue
            seen.add(key)
            examined += 1
            if examined > budget:
                return hits
            if pencil and not analysis.check_pencil(pencil, p).passed:
                continue
            basis = theta3_basis(pencil, p)
            for coeffs in product(constructors._THETA3_COEFFICIENTS, repeat=len(basis)):
                if basis:
                    examined += 1
                    if examined > budget:
                        return hits
                theta3 = Polynomial.zero(p + q)
                for c, b in zip(coeffs, basis):
                    theta3 = theta3 + 8 * c * b
                candidate = NormalFormData(p, q, pencil, theta3)
                if check_eikonal(assemble_from_normal_form(candidate), 4).is_zero:
                    hits.append(candidate)
    return hits


@pytest.mark.parametrize(
    "case", [(2, 1, 1, 10 ** 6), (4, 1, 2, 10 ** 6), (3, 2, 1, 195), (6, 1, 3, 150)],
    ids=["2_1_1", "4_1_2_full", "3_2_1_budget_195", "6_1_3_budget_150"],
)
def test_search_matches_the_reference_loop(case):
    hits = search_isoparametric_pencil(*case)
    assert hits
    assert hits == _reference_search(*case)


def test_empty_basis_miss_is_decided_by_the_seed_residual(monkeypatch):
    """Every admissible pencil with an empty theta_3 basis that the search
    enumerates is eikonal; with the screen passing all, diag(1, 0) (empty
    basis, not eikonal) shows that such a pencil is decided by its residual."""
    real = constructors._seed_matrices
    plain = search_isoparametric_pencil(2, 1, 1)

    class Passed:
        passed = True

    monkeypatch.setattr(analysis, "check_pencil", lambda pencil, p: Passed)
    monkeypatch.setattr(
        constructors, "_seed_matrices",
        lambda p, nu: real(p, nu) + [RationalMatrix.diagonal([1, 0])],
    )
    assert theta3_basis((RationalMatrix.diagonal([1, 0]),), 2) == []
    hits = search_isoparametric_pencil(2, 1, 1)
    assert hits == _reference_search(2, 1, 1, 10 ** 6)
    # the extra seed comes last and none of its conjugates is a hit
    assert hits == plain
