"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py

They cover input reproducibility, the self-time arithmetic, removal of the
trace wrappers, the normalization of op times, and the answer checker.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import generate  # noqa: E402
import oracle  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SCRATCH = ROOT / ".perfbench_out" / "selftest"


@pytest.fixture
def scratch():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_same_seed_same_digest(scratch, workload):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        generate.generate(workload, seed, scratch / name)
    first, again, other = (run.digest(scratch / name) for name in "abc")
    assert first == again
    assert first != other


def _fill(recorder, spans):
    """Load synthetic (name, parent, start, end) spans into a recorder."""
    for name, parent, start, end in spans:
        recorder.name_of.append(recorder.name_id(name))
        recorder.parent.append(parent)
        recorder.start.append(start)
        recorder.end.append(end)


def test_self_time_of_nested_spans():
    tracer = tracing.Tracer()
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]; e [11, 11.5] stands alone
    _fill(tracer.recorder, [("cli.main", -1, 0.0, 10.0), ("classifier.classify", 0, 1.0, 4.0),
                            ("classifier.classify", 0, 5.0, 9.0), ("polyring.poly_mul", 2, 6.0, 7.0),
                            ("polyring.poly_mul", -1, 11.0, 11.5)])
    assert list(tracer.recorder.self_times()) == [3.0, 3.0, 3.0, 1.0, 0.5]
    layers = tracing.layer_metrics(tracer, wall=12.0)
    assert layers["cli.main.self_s"] == 3.0
    assert layers["classifier.classify.calls"] == 2
    assert layers["classifier.classify.self_s"] == 6.0
    assert layers["classifier.classify.total_s"] == 7.0
    assert layers["polyring.poly_mul.self_s"] == 1.5
    assert layers["trace.outside_s"] == 1.5
    assert layers["trace.self_sum_s"] + layers["trace.outside_s"] == 12.0
    assert tracing.nesting_problems(tracer.recorder, 0.0, 12.0) == []
    _fill(tracer.recorder, [("polyring.poly_mul", 1, 3.5, 4.5)])  # ends after its parent
    assert tracing.nesting_problems(tracer.recorder, 0.0, 12.0) == ["a span lies outside its parent"]


def test_wrappers_are_restored():
    import eikq
    import eikq.analysis
    import eikq.classifier
    from eikq.matrices import RationalMatrix

    original = eikq.analysis.check_eikonal
    from_float = RationalMatrix.__dict__["from_float"]
    assert tracing.installed_wrappers() == []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert eikq.classifier.check_eikonal is not original
        assert eikq.check_eikonal is eikq.classifier.check_eikonal
        f = eikq.make_canonical_quartic(3, 1)
        eikq.classify(f)
        RationalMatrix.from_float([[1.0]])
        assert "eikq.classifier.check_eikonal" in tracing.installed_wrappers()
    finally:
        tracer.restore()
    assert tracing.installed_wrappers() == []
    assert eikq.classifier.check_eikonal is original is eikq.analysis.check_eikonal
    assert RationalMatrix.__dict__["from_float"] is from_float
    layers = tracing.layer_metrics(tracer, wall=1.0)
    assert layers["classifier.classify.calls"] == 1
    assert layers["analysis.check_eikonal.calls"] == 1
    assert layers["matrices.from_float.calls"] == 1
    assert layers["normalform.route.identity"] == 1


def test_op_times_are_normalized_by_the_reference_task(monkeypatch):
    timings = iter([0.010, 0.020, 0.030])
    monkeypatch.setattr(ops.reference, "measure", lambda: next(timings))
    monkeypatch.setattr(ops, "run_op", lambda op: ops.Result(op.id, 0.3, 0, ""))
    monkeypatch.setattr(ops, "SLICE_S", 0.0)  # one op per slice
    results, done, _ = ops.run_passes([ops.Op(0, "cli", [], {})], passes=2)
    ref = ops.reference.REFERENCE_S
    assert done == 2
    assert [r.norm_seconds for r in results] == pytest.approx([0.3 * ref / 0.015,
                                                               0.3 * ref / 0.025])


def _classify_op():
    return ops.Op(0, "cli", ["classify", "f.txt", "--json"],
                  {"exit": 0, "verdict": "primitive", "dim_h": 2, "arithmetic": "exact"})


def _report(**fields):
    base = {"verdict": "primitive", "arithmetic": "exact", "dim_h": 2, "m1": None, "m2": None,
            "nu": None, "mu": None}
    return json.dumps(dict(base, **fields))


def test_checker_rejects_a_wrong_verdict_and_counts_exit_2():
    op = _classify_op()
    checker = ops.Checker([op])
    right = ops.Result(0, 0.1, 0, _report())
    wrong = ops.Result(0, 0.1, 0, _report(verdict="isoparametric", dim_h=None, m1=1, m2=1))
    bad_input = ops.Result(0, 0.1, 2, "", "error: no rational orthonormal eigenbasis")
    escaped = ops.Result(0, 0.1, None, "", "RuntimeError: boom")
    assert checker.judge(right) == ops.OK
    assert "verdict" in checker.judge(wrong)
    assert checker.judge(bad_input) == ops.FAIL
    good, failed, contradictions = run.tally(checker, [right, bad_input, escaped, wrong])
    assert (good, failed, len(contradictions)) == (1, 2, 1)


def test_hit_oracle_rejects_a_corrupted_hit():
    hit = "\n".join(["3 2", "", "1 0 0", "0 -1 0", "0 0 0", "", "0 1 0", "1 0 0", "0 0 0", "",
                     "n 5", "2 0 1 0 1 -8", "1 1 1 1 0 16", "0 2 1 0 1 8", ""])
    assert oracle.hit_is_eikonal(hit)
    assert not oracle.hit_is_eikonal(hit.replace("1 1 1 1 0 16", "1 1 1 1 0 8"))


def test_primitive_oracle_matches_construct():
    import eikq

    for g, n, d in ((2, 3, 1), (3, 4, 1), (4, 5, 2), (6, 4, 0)):
        f = eikq.make_primitive(g, n, d)
        assert oracle.parse_poly_text(eikq.poly_to_text(f)) == (n, oracle.primitive(g, n, d))


def test_run_refuses_a_directory_without_the_program(scratch):
    shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=scratch,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
