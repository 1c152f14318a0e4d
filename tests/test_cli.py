"""End-to-end CLI tests: every verb through a real subprocess, exit codes,
JSON determinism, and the text formats for polynomials and rotations."""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys

import pytest

import _data as data
from eikq.constructors import make_canonical_quartic
from eikq.polyring import poly_to_text

IDENTITY_4 = "4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"


def run_cli(*args: str, stdin: str | None = None):
    env = dict(os.environ, EIKQ_COLOR="0")
    return subprocess.run(
        [sys.executable, "-m", "eikq", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConstruct:
    def test_primitive_to_file_and_verify(self, tmp_path):
        out = str(tmp_path / "prim.txt")
        built = run_cli("construct", "--type", "primitive",
                        "--g", "4", "--n", "5", "--dimh", "2", "-o", out)
        assert built.returncode == 0
        verified = run_cli("verify", out)
        assert verified.returncode == 0
        assert "residual exactly zero" in verified.stdout

    def test_canonical_stdout(self):
        result = run_cli("construct", "--type", "canonical", "--n", "4", "--k", "1")
        assert result.returncode == 0
        assert result.stdout.startswith("# canonical quartic n=4 k=1\nn 4\n")

    def test_json_payload(self):
        result = run_cli("construct", "--type", "canonical",
                         "--n", "3", "--k", "1", "--json")
        payload = json.loads(result.stdout)
        assert payload["schema_version"] == "eikq-report-1"
        assert payload["kind"] == "canonical"
        assert payload["n"] == 3

    def test_missing_parameters(self):
        result = run_cli("construct", "--type", "primitive", "--g", "4")
        assert result.returncode == 2
        assert "error:" in result.stderr

    def test_primitive_degree_six(self):
        result = run_cli("construct", "--type", "primitive",
                         "--g", "6", "--n", "3", "--dimh", "1")
        assert result.returncode == 0
        follow = run_cli("verify", "-", "--g", "6", stdin=result.stdout)
        assert follow.returncode == 0


class TestVerify:
    def test_stdin(self):
        text = poly_to_text(data.corpus()[0])
        result = run_cli("verify", "-", stdin=text)
        assert result.returncode == 0

    def test_negative(self, tmp_path):
        path = write(tmp_path, "bad.txt", "n 2\n4 0 1\n")
        result = run_cli("verify", path)
        assert result.returncode == 1
        assert "not eikonal" in result.stdout

    def test_json_fields(self, tmp_path):
        path = write(tmp_path, "f.txt", poly_to_text(data.corpus()[4]))
        result = run_cli("verify", path, "--json")
        payload = json.loads(result.stdout)
        assert payload["eikonal"] is True
        assert payload["residual"]["zero"] is True

    def test_malformed_input(self, tmp_path):
        path = write(tmp_path, "junk.txt", "not a polynomial\n")
        result = run_cli("verify", path)
        assert result.returncode == 2
        assert "line 1" in result.stderr

    def test_missing_file(self):
        result = run_cli("verify", "/nonexistent/path.txt")
        assert result.returncode == 4


class TestClassify:
    def test_primitive(self, tmp_path):
        path = write(tmp_path, "f.txt", poly_to_text(data.corpus()[4]))
        result = run_cli("classify", path)
        assert result.returncode == 0
        assert "verdict: primitive" in result.stdout
        assert "dim H = 1" in result.stdout

    def test_isoparametric_json(self, tmp_path):
        f = data.corpus()[9]
        path = write(tmp_path, "iso.txt", poly_to_text(f))
        result = run_cli("classify", path, "--json")
        payload = json.loads(result.stdout)
        assert payload["verdict"] == "isoparametric"
        assert (payload["m1"], payload["m2"]) == (1, 1)
        assert payload["arithmetic"] == "exact"

    def test_json_byte_deterministic(self, tmp_path):
        path = write(tmp_path, "f.txt", poly_to_text(data.corpus()[7]))
        first = run_cli("classify", path, "--json")
        second = run_cli("classify", path, "--json")
        assert first.stdout == second.stdout

    def test_json_independent_of_term_order(self, tmp_path):
        import random

        from eikq.constructors import make_canonical_quartic
        from eikq.matrices import random_rational_orthogonal
        from eikq.polyring import substitute_linear

        g = substitute_linear(make_canonical_quartic(4, 1), random_rational_orthogonal(4, 1))
        header, *body = poly_to_text(g).splitlines(keepends=True)
        path = write(tmp_path, "sorted.txt", header + "".join(body))
        expected = run_cli("classify", path, "--json")
        assert json.loads(expected.stdout)["arithmetic"] == "float"
        for seed in range(2):
            random.Random(seed).shuffle(body)
            shuffled = write(tmp_path, f"shuffled{seed}.txt", header + "".join(body))
            result = run_cli("classify", shuffled, "--json")
            assert (result.returncode, result.stdout) == (expected.returncode, expected.stdout)

    def test_not_eikonal_exit(self, tmp_path):
        path = write(tmp_path, "bad.txt", "n 2\n4 0 1\n")
        result = run_cli("classify", path)
        assert result.returncode == 1
        assert "not_eikonal" in result.stdout

    def test_inconclusive_exit(self, tmp_path):
        from eikq.constructors import make_canonical_quartic
        from eikq.polyring import Polynomial, rational

        f = make_canonical_quartic(3, 1) + rational(1, 10 ** 8) * Polynomial.monomial(
            3, (4, 0, 0)
        )
        path = write(tmp_path, "near.txt", poly_to_text(f))
        result = run_cli("classify", path)
        assert result.returncode == 3
        assert "inconclusive_float" in result.stdout

    def test_rotation_file(self, tmp_path):
        fpath = write(tmp_path, "f.txt", poly_to_text(data.corpus()[7]))
        rpath = write(tmp_path, "rot.txt", "# identity\n" + IDENTITY_4)
        result = run_cli("classify", fpath, "--rotation", rpath)
        assert result.returncode == 0
        assert "dim H = 2" in result.stdout

    def test_bad_rotation_file(self, tmp_path, capsys):
        fpath = write(tmp_path, "f.txt", poly_to_text(data.corpus()[7]))
        rpath = write(tmp_path, "rot.txt", "4\n1 0 0\n")
        result = run_cli("classify", fpath, "--rotation", rpath)
        assert result.returncode == 2
        for rotation, message in [
            ("4\n1 0 0\n", "rotation file must hold n followed by n^2 entries, n = 4"),
            ("# no entries\n", "rotation file is empty"),
            ("four\n1 0 0 0\n", "rotation file must start with the dimension"),
            ("2\n1 0\n0 one\n", "rotation entries must be rationals"),
            ("2\n1 0\n0 1/0\n", "rotation entries must be rationals"),
        ]:
            rpath = write(tmp_path, "rot.txt", rotation)
            for verb in ("classify", "normalform"):
                assert _in_process([verb, fpath, "--rotation", rpath], capsys) == (
                    2, "", f"error: {message}\n")

    def test_far_input_with_an_invalid_rotation(self, tmp_path):
        # not eikonal is the verdict whatever the rotation; it is refused
        # only for an f that passes the eikonal gate
        fpath = write(tmp_path, "f.txt", "n 4\n4 0 0 0 2\n0 0 0 4 2\n")
        for rotation in ("4\n2 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n", "3\n1 0 0\n0 1 0\n0 0 1\n"):
            rpath = write(tmp_path, "rot.txt", rotation)
            result = run_cli("classify", fpath, "--rotation", rpath, "--json")
            assert result.returncode == 1
            assert json.loads(result.stdout)["verdict"] == "not_eikonal"

    def test_exact_flag_without_position(self, tmp_path):
        from eikq.matrices import random_rational_orthogonal
        from eikq.polyring import substitute_linear

        g = substitute_linear(data.corpus()[4], random_rational_orthogonal(4, 7))
        path = write(tmp_path, "rot.txt", poly_to_text(g))
        result = run_cli("classify", path, "--exact")
        assert result.returncode == 2
        assert "rotation" in result.stderr

    def test_internal_error_exit(self, tmp_path, monkeypatch, capsys):
        import eikq.cli

        def broken(*args, **kwargs):
            raise RuntimeError("this contradicts the structure theory")

        monkeypatch.setattr(eikq.cli, "classify", broken)
        path = write(tmp_path, "f.txt", poly_to_text(data.corpus()[4]))
        assert eikq.cli.main(["classify", path]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error: RuntimeError: this contradicts" in captured.err

    def test_pencil_contradiction_exit(self, tmp_path, monkeypatch, capsys):
        # an exactly eikonal input that fails Muenzner's test, yet has a nonzero
        # pencil with q >= 2, contradicts the structure theory: an internal
        # error, not bad input
        import eikq.classifier
        import eikq.cli

        monkeypatch.setattr(eikq.classifier, "_munzner", lambda *a, **k: (None, 0))
        path = write(tmp_path, "iso.txt", poly_to_text(data.corpus()[9]))
        assert eikq.cli.main(["classify", path]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("internal error: RuntimeError: eikonal quartic with a nonzero pencil"
                in captured.err)

    def test_rotated_isoparametric(self, tmp_path):
        # Muenzner's equation decides an isoparametric input on the exact route
        # without a rotation; a given one is validated, not used
        from eikq.matrices import random_rational_orthogonal
        from eikq.polyring import substitute_linear

        u = random_rational_orthogonal(6, 1)
        g = substitute_linear(data.corpus()[9], u)
        path = write(tmp_path, "iso.txt", poly_to_text(g))
        result = run_cli("classify", path, "--exact", "--json")
        assert (result.returncode, result.stderr) == (0, "")
        payload = json.loads(result.stdout)
        assert (payload["verdict"], payload["arithmetic"]) == ("isoparametric", "exact")
        n = u.n_rows
        misses = "\n".join(" ".join(str(u[i, j]) for j in range(n)) for i in range(n))
        result = run_cli("classify", path, "--json", "--rotation",
                         write(tmp_path, "misses.txt", f"{n}\n{misses}\n"))
        assert (result.returncode, json.loads(result.stdout)) == (0, payload)
        for size, entry, message in ((n, "2", "exactly orthogonal"), (n - 1, "1", "6 x 6")):
            bad = "\n".join(" ".join(entry if i == j else "0" for j in range(size))
                            for i in range(size))
            result = run_cli("classify", path, "--rotation",
                             write(tmp_path, "bad.txt", f"{size}\n{bad}\n"))
            assert (result.returncode, result.stdout) == (2, "")
            assert f"rotation must be {message}" in result.stderr

    def test_irrational_h(self, monkeypatch, capsys):
        # 4 x0^3 x1 - 4 x0 x1^3 is h_1 rotated by pi/8: exactly eikonal, but
        # its H is irrational, so no rational rotation reaches normal position.
        # The float certificate decides it without a sphere search; --exact
        # still refuses it (an exact certificate would close this gap).
        import eikq.cli
        import eikq.normalform

        def unused(*args, **kwargs):
            raise AssertionError("classify ran sphere_maximize")

        monkeypatch.setattr(eikq.normalform, "sphere_maximize", unused)
        text = "n 2\n3 1 4\n1 3 -4\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert eikq.cli.main(["classify", "-", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["verdict"], payload["arithmetic"], payload["dim_h"]) == (
            "primitive", "float", 1)
        assert 0 < payload["residual"] < 1e-9
        result = run_cli("classify", "-", "--exact", stdin=text)
        assert (result.returncode, result.stdout) == (2, "")
        assert "--exact needs f in normal-form position" in result.stderr
        assert run_cli("verify", "-", stdin=text).returncode == 0

    def test_no_ansi_when_disabled(self, tmp_path):
        path = write(tmp_path, "f.txt", poly_to_text(data.corpus()[0]))
        result = run_cli("classify", path)
        assert "\x1b[" not in result.stdout


class TestExactTolerance:
    """Tolerances are compared with exact residuals; floats are only reported."""

    # 10^400 x0^4 + x1^4: its residual is far past the float range
    HUGE = f"n 2\n4 0 {10 ** 400}\n0 4 1\n"
    # (1 + 10^-400) x0^4 - 6 x0^2 x1^2 + x1^4: a residual that floats to 0.0
    TINY = f"n 2\n4 0 {10 ** 400 + 1}/{10 ** 400}\n2 2 -6\n0 4 1\n"

    def test_verify_past_the_float_range(self):
        result = run_cli("verify", "-", stdin=self.HUGE)
        assert (result.returncode, result.stderr) == (1, "")
        assert "not eikonal (residual inf)" in result.stdout

    @pytest.mark.parametrize("verb", ["verify", "classify"])
    def test_json_past_the_float_range(self, verb):
        result = run_cli(verb, "-", "--json", stdin=self.HUGE)
        assert (result.returncode, result.stderr) == (1, "")
        payload = json.loads(result.stdout)
        if verb == "verify":
            assert payload["eikonal"] is False
            assert payload["magnitude"] == float("inf")
        else:
            assert payload["verdict"] == "not_eikonal"
            assert payload["residual"] == float("inf")

    @pytest.mark.parametrize("text", [HUGE, "n 2\n4 0 -1\n"], ids=["huge", "minus_x0_4"])
    def test_normalform_refuses_before_the_float_route(self, text):
        # a residual above the rejection threshold is refused at once, as by
        # classify, before sphere_maximize reads the coefficients as floats
        result = run_cli("normalform", "-", "--json", stdin=text)
        assert (result.returncode, result.stderr) == (1, "")
        assert json.loads(result.stdout)["detail"] == "the eikonal residual is far from zero"
        result = run_cli("normalform", "-", stdin=text)
        assert result.returncode == 1
        assert result.stdout == "not eikonal: the eikonal residual is far from zero\n"

    def test_verify_tol_zero_is_exact(self):
        result = run_cli("verify", "-", "--tol", "0", stdin=self.TINY)
        assert result.returncode == 1
        assert "not eikonal" in result.stdout
        assert run_cli("verify", "-", stdin=self.TINY).returncode == 0

    @pytest.mark.parametrize("verb, line", [
        ("verify", "degree 4, n = 2: not eikonal (residual 9.600e-399)"),
        ("classify", "n = 2, arithmetic = float, residual = 9.600e-399"),
    ])
    def test_text_keeps_a_residual_below_the_float_range(self, verb, line):
        # the residual is 96 / 10^400, whose float image is 0.0
        result = run_cli(verb, "-", "--tol", "0", stdin=self.TINY)
        assert result.returncode == (1 if verb == "verify" else 3)
        assert line in result.stdout.splitlines()
        payload = json.loads(run_cli(verb, "-", "--tol", "0", "--json", stdin=self.TINY).stdout)
        assert (payload["magnitude"] if verb == "verify" else payload["residual"]) == 0.0

    def test_classify_tol_zero_is_exact(self):
        result = run_cli("classify", "-", "--tol", "0", "--json", stdin=self.TINY)
        assert result.returncode == 3
        assert json.loads(result.stdout)["verdict"] == "inconclusive_float"
        default = run_cli("classify", "-", "--json", stdin=self.TINY)
        assert default.returncode == 0
        payload = json.loads(default.stdout)
        assert (payload["verdict"], payload["arithmetic"]) == ("primitive", "float")


class TestNormalform:
    def test_exact_in_position(self, tmp_path):
        path = write(tmp_path, "f.txt", poly_to_text(data.corpus()[7]))
        result = run_cli("normalform", path)
        assert result.returncode == 0
        assert "p = 2, q = 1, arithmetic = exact" in result.stdout
        assert "A_1:" in result.stdout

    def test_json(self, tmp_path):
        path = write(tmp_path, "f.txt", poly_to_text(data.corpus()[9]))
        result = run_cli("normalform", path, "--json")
        payload = json.loads(result.stdout)
        assert payload["schema_version"] == "eikq-report-1"
        assert (payload["p"], payload["q"]) == (3, 2)
        assert payload["arithmetic"] == "exact"
        assert payload["extraction_residual"] == 0.0

    def test_inexact_input_is_not_extracted_exactly(self, tmp_path):
        # f lies in normal-form position but is not exactly eikonal, so the
        # extraction takes the float route
        from eikq.constructors import make_canonical_quartic
        from eikq.polyring import Polynomial, rational

        f = make_canonical_quartic(3, 1) + rational(1, 10 ** 12) * Polynomial.monomial(
            3, (4, 0, 0)
        )
        path = write(tmp_path, "near.txt", poly_to_text(f))
        result = run_cli("normalform", path, "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        report = json.loads(run_cli("classify", path, "--json").stdout)
        assert payload["arithmetic"] == report["arithmetic"] == "float"
        assert (payload["p"], payload["q"]) == (0, 2)
        # classify decides it by the float certificate, which reads no normal
        # form; the zero pencil of this one gives the same dim_h, p + 1
        assert (report["p"], report["q"], report["dim_h"]) == (None, None, 1)

    @pytest.mark.parametrize("text, n", [
        ("n 1\n4 -1\n", 1),
        ("n 3\n4 0 0 -1\n2 2 0 -2\n2 0 2 -2\n0 4 0 -1\n0 2 2 -2\n0 0 4 -1\n", 3),
    ], ids=["n1", "n3"])
    def test_negated_radial_quartic(self, tmp_path, text, n):
        # -|x|^4 is eikonal but its sphere maximum is -1, not 1: the normal
        # form is that of |x|^4, marked as belonging to -f
        path = write(tmp_path, "f.txt", text)
        result = run_cli("normalform", path)
        assert result.returncode == 0
        assert result.stdout.splitlines()[:2] == [
            "normal form of -f", f"p = {n - 1}, q = 0, arithmetic = exact"]
        result = run_cli("normalform", path, "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert list(payload)[:3] == ["schema_version", "negated", "p"]
        assert payload["negated"] is True
        assert (payload["p"], payload["q"]) == (n - 1, 0)

    def test_negation_needs_an_eikonal_input(self, tmp_path):
        # f = -(|x|^4 + 10^-8 x_0^4) has eikonal residual 3.2e-7, between the
        # default tol and the rejection threshold.  -f has a float normal form,
        # but it is read only when f is eikonal within tol; otherwise f's
        # evidence (its sphere maximum is -1) stands
        path = write(tmp_path, "f.txt", "n 2\n4 0 -100000001/100000000\n2 2 -2\n0 4 -1\n")
        result = run_cli("normalform", path)
        assert result.returncode == 1
        assert result.stdout.startswith("not eikonal: no sphere maximum with value 1")
        result = run_cli("normalform", path, "--tol", "1e-6")
        assert result.returncode == 0
        assert result.stdout.startswith("normal form of -f\np = 1, q = 0, arithmetic = float")

    def test_not_eikonal(self, tmp_path):
        path = write(tmp_path, "bad.txt", "n 2\n4 0 1\n0 4 1\n")
        result = run_cli("normalform", path)
        assert result.returncode == 1
        assert "not eikonal" in result.stdout

    def test_identity_route_falls_back_without_a_rational_eigenbasis(self, tmp_path, capsys):
        # f = h_2 composed with diag(W, 1) is exactly eikonal with f(e_6) = 1,
        # but Gram-Schmidt finds no rational orthonormal eigenbasis of phi, so
        # the identity route returns None and the float route answers
        from eikq.analysis import check_eikonal
        from eikq.matrices import RationalMatrix, random_rational_orthogonal
        from eikq.normalform import exact_normal_form
        from eikq.polyring import substitute_linear

        w = random_rational_orthogonal(5, 1)
        rows = [list(w.row(i)) + [0] for i in range(5)] + [[0] * 5 + [1]]
        f = substitute_linear(make_canonical_quartic(6, 2), RationalMatrix(rows))
        assert check_eikonal(f, 4).is_zero
        assert f.coefficient((0,) * 5 + (4,)) == 1
        assert exact_normal_form(f, allow_float=True) is None
        reason = "^no rational orthonormal eigenbasis for the x_n\\^2 coefficient"
        with pytest.raises(ValueError, match=reason):
            exact_normal_form(f)
        path = write(tmp_path, "f.txt", poly_to_text(f))
        code, out, _ = _in_process(["classify", path, "--json"], capsys)
        report = json.loads(out)
        assert (code, report["verdict"], report["dim_h"]) == (0, "primitive", 2)
        assert _in_process(["normalform", path], capsys)[0] == 0
        # --exact reports the extraction's own reason, not a missing position
        for verb in ("classify", "normalform"):
            code, _, err = _in_process([verb, path, "--exact"], capsys)
            assert code == 2
            assert re.match("error: " + reason[1:], err), err

    def test_exact_flag_in_position(self, tmp_path):
        path = write(tmp_path, "f.txt", poly_to_text(data.corpus()[7]))
        result = run_cli("normalform", path, "--exact", "--json")
        assert result.returncode == 0
        assert json.loads(result.stdout)["arithmetic"] == "exact"

    def test_exact_needs_rotation(self, tmp_path):
        from eikq.matrices import random_rational_orthogonal
        from eikq.polyring import substitute_linear

        f = substitute_linear(data.corpus()[7], random_rational_orthogonal(4, 1))
        path = write(tmp_path, "f.txt", poly_to_text(f))
        result = run_cli("normalform", path, "--exact")
        assert result.returncode == 2
        assert "rotation" in result.stderr

    def test_rotation_file(self, tmp_path):
        fpath = write(tmp_path, "f.txt", poly_to_text(data.corpus()[7]))
        rpath = write(tmp_path, "rot.txt", IDENTITY_4)
        result = run_cli("normalform", fpath, "--rotation", rpath)
        assert result.returncode == 0
        assert "arithmetic = exact" in result.stdout

    @pytest.mark.parametrize("verb", ["classify", "normalform"])
    def test_negated_input_at_a_rotation(self, tmp_path, verb):
        # g = -h_2(U x) and R = U^T: g(R x) = -h_2(x) is -1 at the last basis
        # vector, so the exact route at R reads -g, as the identity route does
        from eikq.constructors import make_primitive
        from eikq.matrices import random_rational_orthogonal
        from eikq.polyring import substitute_linear

        u = random_rational_orthogonal(4, 1)
        fpath = write(tmp_path, "f.txt", poly_to_text(substitute_linear(-make_primitive(4, 4, 2), u)))
        rows = (" ".join(str(v) for v in row) for row in u.transpose().entries)
        rpath = write(tmp_path, "rot.txt", "4\n" + "\n".join(rows) + "\n")
        result = run_cli(verb, fpath, "--rotation", rpath, "--exact", "--json")
        assert (result.returncode, result.stderr) == (0, "")
        payload = json.loads(result.stdout)
        assert payload["arithmetic"] == "exact"
        if verb == "normalform":
            assert payload["negated"] is True
        else:
            assert (payload["verdict"], payload["dim_h"]) == ("primitive", 2)

    @pytest.mark.parametrize("verb", ["classify", "normalform"])
    def test_negated_failure_at_a_rotation(self, tmp_path, verb):
        # -h_2(R x) is -1 at the last basis vector, so -f is read at R, and the
        # normalform error is -f's own: R = diag(W, 1) leaves phi without a
        # rational eigenbasis.  classify needs none: its certificate proves
        # -f(R x) = h_2 exactly
        from eikq.matrices import random_rational_orthogonal

        w = random_rational_orthogonal(5, 1)
        rows = [[*w.row(i), 0] for i in range(5)] + [[0] * 5 + [1]]
        rpath = write(tmp_path, "rot.txt", "6\n" + "\n".join(" ".join(map(str, row)) for row in rows) + "\n")
        fpath = write(tmp_path, "f.txt", poly_to_text(-make_canonical_quartic(6, 2)))
        result = run_cli(verb, fpath, "--rotation", rpath)
        if verb == "normalform":
            assert result.returncode == 2
            assert result.stderr.startswith("error: no rational orthonormal eigenbasis")
        else:
            assert (result.returncode, result.stderr) == (0, "")
            assert result.stdout.splitlines()[:4] == [
                "verdict: primitive", "n = 6, arithmetic = exact, residual = 0.000e+00",
                "normal form: p = 3, q = 2", "primitive class: dim H = 2 (as min(d, n - d))"]

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_rotation_with_an_inexact_input(self, tmp_path, as_json):
        # f(R x) is not exactly eikonal, so the normal form is read as
        # without a rotation: the float route, within --tol
        from eikq.polyring import Polynomial, rational

        f = make_canonical_quartic(3, 1) + rational(1, 10 ** 12) * Polynomial.monomial(
            3, (0, 2, 2)
        )
        fpath = write(tmp_path, "f.txt", poly_to_text(f))
        rpath = write(tmp_path, "rot.txt", "3\n1 0 0\n0 1 0\n0 0 1\n")
        options = ["--json"] if as_json else []
        rotated = run_cli("normalform", fpath, "--rotation", rpath, *options)
        plain = run_cli("normalform", fpath, *options)
        assert rotated.returncode == plain.returncode == 0
        assert rotated.stdout == plain.stdout
        if as_json:
            assert json.loads(rotated.stdout)["arithmetic"] == "float"
        else:
            assert "arithmetic = float" in rotated.stdout
        # the rotation is still validated, and --exact still refuses the float route
        bad = write(tmp_path, "bad.txt", "3\n2 0 0\n0 1 0\n0 0 1\n")
        result = run_cli("normalform", fpath, "--rotation", bad)
        assert (result.returncode, result.stderr) == (2, "error: rotation must be exactly orthogonal\n")
        # and --exact names the reason: f is not exactly eikonal
        for verb in ("normalform", "classify"):
            result = run_cli(verb, fpath, "--rotation", rpath, "--exact", *options)
            assert (result.returncode, result.stdout) == (2, "")
            assert result.stderr == (
                "error: --exact needs an exactly eikonal f, but its eikonal residual "
                "is nonzero; rerun without --exact to allow the float path\n"
            )

    def test_far_input_with_a_rotation(self, tmp_path):
        # the eikonal gate on f comes before the rotation is used or refused
        fpath = write(tmp_path, "f.txt", "n 4\n4 0 0 0 2\n0 0 0 4 2\n")
        for rotation in (IDENTITY_4, "3\n1 0 0\n0 1 0\n0 0 1\n"):
            rpath = write(tmp_path, "rot.txt", rotation)
            result = run_cli("normalform", fpath, "--rotation", rpath, "--json")
            assert result.returncode == 1
            assert json.loads(result.stdout) == {
                "schema_version": "eikq-report-1",
                "verdict": "not_eikonal",
                "detail": "the eikonal residual is far from zero",
            }

    def test_exact_input_with_a_wrong_size_rotation(self, tmp_path):
        fpath = write(tmp_path, "f.txt", poly_to_text(data.corpus()[7]))
        rpath = write(tmp_path, "rot.txt", "3\n1 0 0\n0 1 0\n0 0 1\n")
        for verb in ("normalform", "classify"):
            result = run_cli(verb, fpath, "--rotation", rpath)
            assert (result.returncode, result.stdout) == (2, "")
            assert result.stderr == "error: rotation must be 4 x 4\n"

    def test_non_quartic_with_an_eikonal_rotation(self, tmp_path):
        # f + 1 has f's gradient, so f(R x) + 1 passes the zero test; it is
        # still refused as no quartic, with or without the rotation
        from eikq.polyring import Polynomial

        f = data.corpus()[7] + Polynomial.constant(4, 1)
        fpath = write(tmp_path, "f.txt", poly_to_text(f))
        rpath = write(tmp_path, "rot.txt", IDENTITY_4)
        for options in ([], ["--rotation", rpath], ["--rotation", rpath, "--exact"]):
            result = run_cli("normalform", fpath, *options)
            assert (result.returncode, result.stdout) == (2, "")
            assert result.stderr == "error: f must be a nonzero homogeneous quartic\n"


class TestCongruent:
    def test_affirmative(self):
        result = run_cli("congruent", "--n", "4", "1", "3")
        assert result.returncode == 0
        assert "congruent" in result.stdout

    def test_negative(self):
        result = run_cli("congruent", "--n", "2", "0", "1")
        assert result.returncode == 1
        assert "not congruent" in result.stdout

    def test_json(self):
        result = run_cli("congruent", "--n", "6", "2", "4", "--json")
        payload = json.loads(result.stdout)
        assert payload["congruent"] is True

    def test_out_of_range(self):
        result = run_cli("congruent", "--n", "3", "5", "1")
        assert result.returncode == 2


class TestSearchPencil:
    def test_small_family(self):
        result = run_cli("search-pencil", "--p", "1", "--q", "1", "--nu", "0")
        assert result.returncode == 0
        assert "# candidates:" in result.stdout
        assert "# candidate 1" in result.stdout

    def test_json(self):
        result = run_cli("search-pencil", "--p", "2", "--q", "1", "--nu", "1",
                         "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["count"] >= 1
        assert all(c.startswith("2 1\n") for c in payload["candidates"])

    def test_infeasible(self):
        result = run_cli("search-pencil", "--p", "1", "--q", "1", "--nu", "1")
        assert result.returncode == 1
        assert "infeasible" in result.stdout

    def test_exhausted_budget(self):
        result = run_cli("search-pencil", "--p", "3", "--q", "2", "--nu", "1",
                         "--budget", "1")
        assert result.returncode == 1
        assert "# candidates: 0" in result.stdout


    def test_empty_pencil(self):
        result = run_cli("search-pencil", "--p", "3", "--q", "0", "--nu", "0", "--json")
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["count"] == 1
        assert payload["candidates"][0].startswith("3 0\n")


NOT_EIKONAL_QUARTIC = "n 2\n4 0 1\n0 4 1\n"  # x0^4 + x1^4


class TestOutputContract:
    """One report per run: `--json` holds for negative outcomes too, and `-o`
    receives the report in either format."""

    @pytest.mark.parametrize("argv, code", [
        (["construct", "--type", "canonical", "--n", "3", "--k", "1"], 0),
        (["verify", "{poly}"], 0),
        (["classify", "{poly}"], 0),
        (["normalform", "{poly}"], 0),
        (["congruent", "--n", "5", "2", "3"], 0),
        (["congruent", "--n", "5", "1", "3"], 1),
        (["search-pencil", "--p", "2", "--q", "1", "--nu", "1"], 0),
    ], ids=["construct", "verify", "classify", "normalform", "congruent",
            "congruent-negative", "search-pencil"])
    def test_every_verb_writes_json(self, tmp_path, argv, code):
        poly = write(tmp_path, "f.txt", poly_to_text(make_canonical_quartic(3, 1)))
        result = run_cli(*[arg.format(poly=poly) for arg in argv], "--json")
        assert (result.returncode, result.stderr) == (code, "")
        payload = json.loads(result.stdout)
        assert list(payload)[0] == "schema_version"
        assert payload["schema_version"] == "eikq-report-1"

    def test_normalform_not_eikonal_json(self, tmp_path):
        path = write(tmp_path, "bad.txt", NOT_EIKONAL_QUARTIC)
        result = run_cli("normalform", path, "--json")
        assert (result.returncode, result.stderr) == (1, "")
        payload = json.loads(result.stdout)
        assert list(payload) == ["schema_version", "verdict", "detail"]
        assert payload["verdict"] == "not_eikonal"
        text = run_cli("normalform", path)
        assert text.stdout == f"not eikonal: {payload['detail']}\n"

    def test_search_pencil_infeasible_json(self):
        result = run_cli("search-pencil", "--p", "2", "--q", "1", "--nu", "2", "--json")
        assert (result.returncode, result.stderr) == (1, "")
        payload = json.loads(result.stdout)
        assert list(payload) == ["schema_version", "p", "q", "nu", "budget", "count",
                                 "candidates", "detail"]
        assert (payload["count"], payload["candidates"]) == (0, [])
        assert payload["detail"]

    @pytest.mark.parametrize("argv, code", [
        (["construct", "--type", "canonical", "--n", "3", "--k", "1"], 0),
        (["search-pencil", "--p", "2", "--q", "1", "--nu", "1"], 0),
        (["search-pencil", "--p", "2", "--q", "1", "--nu", "2"], 1),
    ], ids=["construct", "search-pencil", "search-pencil-infeasible"])
    def test_output_file_receives_the_json_report(self, tmp_path, argv, code):
        out = tmp_path / "report.json"
        result = run_cli(*argv, "--json", "-o", str(out))
        assert (result.returncode, result.stdout, result.stderr) == (code, "", "")
        payload = json.loads(out.read_text())
        assert list(payload)[0] == "schema_version"
        assert out.read_text() == run_cli(*argv, "--json").stdout

    def test_output_file_receives_text(self, tmp_path):
        out = tmp_path / "report.txt"
        argv = ["search-pencil", "--p", "2", "--q", "1", "--nu", "2"]
        result = run_cli(*argv, "-o", str(out))
        assert (result.returncode, result.stdout) == (1, "")
        assert out.read_text() == run_cli(*argv).stdout
        assert out.read_text().startswith("infeasible: ")

    def test_errors_stay_on_stderr(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli("verify", "/nonexistent/path.txt", "--json")
        assert (result.returncode, result.stdout) == (4, "")
        assert result.stderr.startswith("error: ")
        result = run_cli("construct", "--type", "primitive", "--g", "4", "--json",
                         "-o", str(out))
        assert (result.returncode, result.stdout) == (2, "")
        assert not out.exists()

    def test_color_only_on_the_first_line_of_a_terminal(self, monkeypatch, capsys):
        import eikq.cli

        answer = eikq.cli._Answer(1, {"x": 1}, "first\nsecond", eikq.cli._RED)
        monkeypatch.delenv("EIKQ_COLOR", raising=False)
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        eikq.cli._write(answer, False, None)
        assert capsys.readouterr().out == "\x1b[31mfirst\x1b[0m\nsecond\n"
        eikq.cli._write(answer, True, None)
        assert "\x1b[" not in capsys.readouterr().out
        monkeypatch.setenv("EIKQ_COLOR", "0")
        eikq.cli._write(answer, False, None)
        assert capsys.readouterr().out == "first\nsecond\n"


def _in_process(argv, capsys):
    """(exit code, stdout, stderr) of one in-process main call."""
    import eikq.cli

    try:
        code = eikq.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_parser_reuse_matches_fresh_parser(self, tmp_path, capsys, monkeypatch):
        import eikq.cli

        poly = write(tmp_path, "f.txt", poly_to_text(data.corpus()[0]))
        calls = [
            ["congruent", "--n", "5", "2", "3"],
            ["verify", poly, "--json"],
            ["congruent", "--n", "5", "2"],  # usage error: SystemExit(2)
            ["congruent", "--n", "5", "2", "3"],
            ["verify", poly, "--g", "oops"],  # usage error in another subparser
            ["verify", poly, "--json"],
            ["construct", "--type", "canonical", "--n", "4", "--k", "1"],
            ["frobnicate"],
            ["congruent", "--n", "5", "2", "3", "--json"],
        ]
        assert eikq.cli._build_parser() is eikq.cli._build_parser()
        reused = [_in_process(argv, capsys) for argv in calls]
        monkeypatch.setattr(eikq.cli, "_build_parser", eikq.cli._build_parser.__wrapped__)
        fresh = [_in_process(argv, capsys) for argv in calls]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 2, 0, 2, 0, 0, 2, 0]
        assert reused[0] == reused[3] and reused[1] == reused[5]
        assert "usage: eikq congruent" in reused[2][2]

    @pytest.mark.parametrize("verb", ["classify", "normalform"])
    def test_no_seed_option(self, verb, tmp_path, capsys):
        # the sphere maximum is found in closed form, with nothing to seed
        path = write(tmp_path, "f.txt", poly_to_text(data.corpus()[0]))
        code, out, err = _in_process([verb, path, "--seed", "1"], capsys)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --seed" in err

    @pytest.mark.parametrize("verb, tol", [
        ("verify", "inf"), ("verify", "-1"), ("classify", "-1"), ("classify", "nan"),
        ("normalform", "nan"), ("normalform", "-1"), ("classify", "abc"), ("verify", "abc"),
    ])
    def test_tol_must_be_finite_and_nonnegative(self, tmp_path, capsys, verb, tol):
        # x0^4 is not eikonal and make_canonical_quartic(3, 1) is exactly eikonal:
        # a negative, NaN or infinite --tol would pass the first or reject the second
        f = poly_to_text(make_canonical_quartic(3, 1)) if verb != "verify" else "n 2\n4 0 1\n"
        code, out, err = _in_process([verb, write(tmp_path, "f.txt", f), "--tol", tol], capsys)
        assert (code, out) == (2, "")
        assert f"argument --tol: expected a finite number >= 0, got '{tol}'" in err
        assert _in_process([verb, write(tmp_path, "f.txt", f), "--tol", "0"], capsys)[0] == (
            1 if verb == "verify" else 0
        )

    def test_unknown_verb(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2

    def test_no_verb(self):
        result = run_cli()
        assert result.returncode == 2

    def test_console_script_entry(self):
        # runs `python -m eikq`; the installed `eikq` console script calls the
        # same main() and is run by the CI install step
        result = run_cli("congruent", "--n", "5", "2", "3")
        assert result.returncode == 0
