"""Running one pass of operations against eikq, and checking the answers.

An operation is one call a researcher makes and waits on: ``eikq.cli.main``
called in-process on the generated files, or the library's identity route
(``check_system`` and ``check_structure_identities``) on one normal-form
candidate.  Functions are looked up on their modules at call time, so a
traced run sees the wrappers that `tracing.Tracer` installs.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import oracle
import reference

OK, FAIL = "ok", "fail"


@dataclass
class Op:
    id: int
    kind: str
    argv: list
    expect: dict
    data: object = None  # parsed NormalFormData of an identity op


@dataclass
class Result:
    op: int
    seconds: float
    code: object  # exit code, the identity verdict, or None when it raised
    stdout: str
    error: str = ""
    norm_seconds: float = 0.0  # `seconds` in normalized seconds, see reference.py


def load(input_dir: Path, work_dir: Path) -> list[Op]:
    from eikq.constructors import normal_form_data_from_text

    manifest = json.loads((input_dir / "manifest.json").read_text())

    def resolve(text: str) -> str:
        return text.replace("{in}", str(input_dir)).replace("{work}", str(work_dir))

    ops = []
    for raw in manifest["ops"]:
        op = Op(raw["id"], raw["kind"], [resolve(a) for a in raw.get("argv", [])],
                {k: resolve(v) if isinstance(v, str) else v for k, v in raw["expect"].items()})
        if op.kind == "identity":
            op.data = normal_form_data_from_text(Path(resolve(raw["file"])).read_text())
        ops.append(op)
    return ops


def _identity_route(data) -> bool:
    from eikq import analysis, pencils

    p, m = data.p, data.p + data.q
    phi = pencils.block_radial(m, range(p)) - 3 * pencils.block_radial(m, range(p, m))
    psi = pencils.psi_from_pencil(data.pencil, p)
    theta = (pencils.theta4_from_pencil(data.pencil, p) + data.theta3
             + pencils.theta2_from_pencil(data.pencil, p) + pencils.theta0_poly(p, data.q))
    # both checks run, as a full residual report would need them
    system = analysis.check_system(phi, psi, theta).all_zero
    structure = analysis.check_structure_identities(data).all_zero
    return system and structure


def run_op(op: Op) -> Result:
    import eikq.cli

    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        if op.kind == "identity":
            code = _identity_route(op.data)
        else:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = eikq.cli.main(op.argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an error escaping the entry point is a failed op
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Result(op.id, seconds, code, out.getvalue(), error or err.getvalue().strip())


MIN_PASSES = 3
SLICE_S = 0.75


def run_passes(ops: list[Op], seconds: float | None = None, passes: int | None = None,
               min_passes: int = MIN_PASSES):
    """Whole passes over `ops`: exactly `passes`, or until `seconds` have elapsed.

    A timed run makes at least `min_passes` passes, MIN_PASSES by default,
    so the slowest cluster of each workload holds the ten samples beyond the
    tail percentile.  The
    reference task is timed before the first op and again after every slice
    of at least SLICE_S seconds of ops; each op of a slice is normalized by
    the mean of the two timings around it.
    Returns (results, passes run, wall seconds of the timed phase).
    """
    results = []
    done = 0
    start = time.perf_counter()
    ref = reference.measure()
    pending: list[Result] = []
    slice_start = time.perf_counter()

    def close_slice():
        nonlocal ref, pending, slice_start
        after = reference.measure()
        scale = reference.REFERENCE_S / ((ref + after) / 2)
        for result in pending:
            result.norm_seconds = result.seconds * scale
        ref, pending, slice_start = after, [], time.perf_counter()

    while True:
        for op in ops:
            result = run_op(op)
            results.append(result)
            pending.append(result)
            if time.perf_counter() - slice_start >= SLICE_S:
                close_slice()
        done += 1
        elapsed = time.perf_counter() - start
        if (done >= passes) if passes is not None else (done >= min_passes and elapsed >= seconds):
            if pending:
                close_slice()
            return results, done, elapsed


class Checker:
    """Judges results against the expected answers.

    `judge` returns "ok", "fail" (the op raised, exited 2, 3 or 4 when not
    expected, or came back inconclusive_float) or a string describing a
    definite answer that contradicts the construction.
    """

    def __init__(self, ops: list[Op]):
        self.ops = {op.id: op for op in ops}
        self._cache: dict = {}
        self._hits: dict = {}

    def judge(self, result: Result) -> str:
        key = (result.op, result.code, result.stdout)
        if key not in self._cache:
            self._cache[key] = self._judge(self.ops[result.op], result)
        return self._cache[key]

    def _judge(self, op: Op, result: Result) -> str:
        exp = op.expect
        if op.kind == "identity":
            if result.code is None:
                return FAIL
            if exp["planted"] and not result.code:
                return f"op {op.id}: planted eikonal candidate rejected by the identity route"
            return OK  # unplanted candidates are checked by `cross_check_identity`
        if result.code is None or (result.code in (2, 3, 4) and result.code != exp["exit"]):
            return FAIL
        verb = op.argv[0]
        if verb == "construct":
            return OK if result.code == 0 else f"op {op.id}: construct exited {result.code}"
        try:
            report = json.loads(result.stdout)
        except ValueError:
            return f"op {op.id}: exit {result.code} without a JSON report"
        if verb == "verify":
            if (result.code, report["eikonal"], report["g"], report["n"]) != (
                    exp["exit"], exp["eikonal"], exp["g"], exp["n"]):
                return f"op {op.id}: verify answered {result.code}/{report['eikonal']}"
            return OK
        if verb == "classify":
            if report["verdict"] == "inconclusive_float":
                return FAIL
            for key in ("verdict", "arithmetic", "dim_h", "m1", "m2", "nu", "mu"):
                if key in exp and report[key] != exp[key]:
                    return f"op {op.id}: {key} = {report[key]!r}, expected {exp[key]!r}"
            if result.code != exp["exit"]:
                return f"op {op.id}: exit {result.code}, expected {exp['exit']}"
            return OK
        if verb == "search-pencil":
            if result.code != exp["exit"] or report["count"] != exp["count"]:
                return f"op {op.id}: {report['count']} hits, expected {exp['count']}"
            if len(report["candidates"]) != exp["count"]:
                return f"op {op.id}: candidate list does not match the count"
            for text in report["candidates"]:
                if text not in self._hits:
                    self._hits[text] = oracle.hit_is_eikonal(text)
                if not self._hits[text]:
                    return f"op {op.id}: a search hit is not eikonal"
            return OK
        raise ValueError(f"unknown verb {verb}")

    def check_files(self) -> list[str]:
        """Compare every file `construct` wrote with the oracle's expansion."""
        problems = []
        for op in self.ops.values():
            if op.kind == "cli" and op.argv[0] == "construct":
                g, n, d = op.expect["oracle"]
                path = Path(op.expect["file"])
                if not path.exists() or oracle.parse_poly_text(path.read_text()) != (
                        n, oracle.primitive(g, n, d)):
                    problems.append(f"op {op.id}: {path.name} is not the primitive form")
        return problems

    def cross_check_identity(self, results: list[Result]) -> list[str]:
        """The identity route must agree with check_eikonal on the assembled quartic."""
        from eikq.analysis import check_eikonal
        from eikq.constructors import assemble_from_normal_form

        direct: dict = {}
        problems = []
        for result in results:
            op = self.ops[result.op]
            if op.kind != "identity" or result.code is None:
                continue
            if op.id not in direct:
                direct[op.id] = check_eikonal(assemble_from_normal_form(op.data), 4).is_zero
            if bool(result.code) != direct[op.id]:
                problems.append(f"op {op.id}: identity route and check_eikonal disagree")
        return problems
