"""The eikq benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Set-up generates the workload's
input files three times in fresh interpreters (import eikq, build, write)
and reports the median as ``setup_s``; the three input digests must agree.
The timed phase is one closed-loop client in this process that makes one
call at a time, in whole passes over the seeded operation list, until
``--seconds`` have passed.  Times are reported in normalized seconds, scaled
by a reference task timed beside them (see ``reference.py``); the wall-clock
figures go to the ``#`` line.  Every answer is checked against the one known
from how its input was built.  With ``--trace 1`` the same passes run again
under the span-recording wrappers and the per-layer metrics are printed
instead of the end-to-end ones.  The last line of standard output is the
result as one JSON object; details go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, before numpy is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 3


def digest(directory: Path) -> str:
    """sha256 over the relative paths and contents of every file, in order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def set_up(workload: str, seed: int, inputs: Path) -> tuple[list[float], list[float], list[str]]:
    """Generate the inputs SETUP_REPEATS times, each in a fresh interpreter.

    Returns the wall times, the same in normalized seconds (the reference
    task is timed before and after each set-up), and the input digests.
    """
    import reference

    times, normalized, digests = [], [], []
    ref = reference.measure()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms and
        # the timing comes out in those steps
        subprocess.run([sys.executable, str(HERE / "generate.py"), "--workload", workload,
                        "--seed", str(seed), "--out", str(inputs)], check=True)
        times.append(time.perf_counter() - start)
        after = reference.measure()
        normalized.append(times[-1] * reference.REFERENCE_S / ((ref + after) / 2))
        ref = after
        digests.append(digest(inputs))
    return times, normalized, digests


def environment() -> dict:
    import numpy

    import eikq.polyring

    try:
        # the ceiling keeps git from searching above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
                                ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    backend = type(eikq.polyring.rational(0))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rational_backend": f"{backend.__module__}.{backend.__qualname__}",
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_digest": digest(SOURCE / "eikq"),
    }


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    index = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def tally(checker, results) -> tuple[int, int, list[str]]:
    """(answered correctly, failed, contradictions) over a list of results."""
    good = failed = 0
    wrong = []
    for result in results:
        verdict = checker.judge(result)
        if verdict == "ok":
            good += 1
        elif verdict == "fail":
            failed += 1
        else:
            wrong.append(verdict)
    return good, failed, wrong


def main(argv=None) -> int:
    spec_file = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_file.read_text()) if spec_file.exists() else {}
    parser = argparse.ArgumentParser(description="eikq benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec.get("workloads", [])])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "eikq" / "__init__.py").is_file() or not spec:
        print("error: run from the root of an eikq checkout (src/eikq and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    inputs, work = out / "inputs", out / "work"
    work.mkdir(parents=True)
    setup_times, setup_norm, digests = set_up(args.workload, args.seed, inputs)

    import ops as bench_ops
    import tracing as bench_trace

    ops = bench_ops.load(inputs, work)
    # a traced run spends half its time untraced and half traced, with no
    # minimum of three passes, so it lasts about as long as an untraced one;
    # its latencies feed no end-to-end metric
    if args.trace:
        results, passes, run_s = bench_ops.run_passes(ops, seconds=args.seconds / 2,
                                                      min_passes=1)
    else:
        results, passes, run_s = bench_ops.run_passes(ops, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = [] if len(set(digests)) == 1 else ["set-up produced different inputs"]

    layers = {}
    traced = []
    if args.trace:
        tracer = bench_trace.Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            traced, _, _ = bench_ops.run_passes(ops, passes=passes)
            end = time.perf_counter()
        finally:
            tracer.restore()
        if bench_trace.installed_wrappers():
            problems.append("trace wrappers left installed")
        tracer.recorder.save(out / "spans.npz")
        traced_s = end - start
        layers = bench_trace.layer_metrics(tracer, traced_s)
        layers["trace.overhead_ratio"] = (sum(r.norm_seconds for r in traced)
                                          / sum(r.norm_seconds for r in results) - 1.0)
        layers["trace.run_s"] = traced_s
        layers["trace.untraced_run_s"] = run_s
        problems += bench_trace.nesting_problems(tracer.recorder, start, end)
        if abs(layers["trace.self_sum_s"] + layers["trace.outside_s"] - traced_s) > 1e-6 * traced_s:
            problems.append("self times and time outside spans do not add up to the wall time")

    checker = bench_ops.Checker(ops)
    good, failed, wrong = tally(checker, results)
    attempted = len(results)
    if args.trace:
        _, traced_failed, traced_wrong = tally(checker, traced)
        wrong += traced_wrong
    wrong += checker.check_files() + checker.cross_check_identity(results + traced)
    problems += sorted(set(wrong))

    def timings(latencies: list[float], setup: list[float]) -> dict:
        return {"setup_s": statistics.median(setup),
                "ops_per_s": good / sum(latencies),
                "latency_p50_s": statistics.median(latencies),
                "latency_tail_s": tail_latency(latencies)[0]}

    _, percentile, samples = tail_latency([r.seconds for r in results])
    wall = timings([r.seconds for r in results], setup_times)
    end_to_end = dict(timings([r.norm_seconds for r in results], setup_norm),
                      success_ratio=1.0 - failed / attempted, peak_rss_mb=peak_rss_mb)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else end_to_end
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "ops_per_pass": len(ops), "run_s": run_s,
        "attempted": attempted, "answered": good, "failed": failed,
        "fail_ratio": failed / attempted,
        "block_rotation_share": sum(
            checker.ops[r.op].expect.get("block_rotation", False) for r in results) / attempted,
        "latency_tail_percentile": percentile, "latency_samples": samples,
        "setup_times_s": setup_times, "setup_norm_s": setup_norm, "input_digest": digests[0],
        # 1 at the reference speed, 0.5 when the host ran at half of it
        "host_speed": sum(r.norm_seconds for r in results) / sum(r.seconds for r in results),
        "environment": environment(), "problems": problems,
        "fail_errors": sorted({r.error for r in results if checker.judge(r) == "fail"}),
        "end_to_end": end_to_end, "wall": wall, "layers": layers,
    }
    (out / "result.json").write_text(json.dumps(details, indent=1, sort_keys=True) + "\n")
    print("# " + json.dumps({k: details[k] for k in (
        "passes", "attempted", "fail_ratio", "block_rotation_share", "latency_tail_percentile",
        "latency_samples", "wall", "host_speed",
        "input_digest", "environment", "problems")}, sort_keys=True))
    for problem in problems:
        print(f"# problem: {problem}")
    if args.trace:
        attempted, failed = len(traced), traced_failed
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
