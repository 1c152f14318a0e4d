"""Per-layer timings of eikq on fixed inputs, in normalized seconds.

    python3 tools/layers.py --out layers.json                       # one tree
    python3 tools/layers.py --before OLD/src --out BENCH_<n>.json   # a pair
    python3 tools/layers.py --quick --out layers_quick.json         # seconds
    python3 tools/layers.py --check layers_quick.json               # schema

The eikq timed is the one under ``--src`` (default: this checkout's
``src``); with ``--before`` the tree there is timed too, as the before
side of a pair, which is what a ``BENCH_<n>.json`` holds.  Each tree runs
in its own worker interpreter, which builds the inputs and the calls once.
Each point times one layer on one input.  The call is repeated until a run
lasts about ``min_run_s``, and the best of ``best_of`` runs, divided by
the repeats, is the point's time.  In a pair the two trees take turns run
by run, the first turn alternating, so that a change in the host's speed
meets both sides alike.  Times are scaled by ``REFERENCE_S / measured``,
where measured is the reference task of ``perfbench/reference.py``
(imported, never changed), timed before and after the point: these are
the normalized seconds of the benchmark, which read close to wall seconds
on an undisturbed core of its 2-core host.  The inputs are fixed, not
seeded: Cayley-rotated primitive quartics at n = 4, 6 and 10,
``make_canonical_quartic(6, 2)`` at a block rotation U^T diag(W, 1), and
the rotated (3, 2, 1) isoparametric quartic.  Each input is a pair (f, R)
as ``classify --rotation`` gets it, and g = f(R x).  The matrix layers
``matmul`` (R^T R), ``inverse`` (R) and ``kernel_basis`` (I - R) are timed
on each R and on a Cayley rotation at n = 16.  The pencil search
is timed on its own inputs: ``search_isoparametric_pencil`` on the full
(6, 1, 3) search and on (5, 4, 1) and (6, 3, 2) cut at 3000 candidates,
and ``check_pencil`` on one q = 4 seed set of (5, 4, 1) that passes, so
that every identity term is tested.  ``--quick`` times each layer once:
those of (f, R) on the n = 4 input, the search on (2, 1, 1) and
``check_pencil`` on one seed pair of (3, 2, 1), to test the schema.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "eikq-layers-1"
PAIR_SCHEMA = "eikq-layers-pair-1"
LAYERS = (
    "classify", "substitute_linear", "check_eikonal[f]", "check_eikonal[g]",
    "radial_square_root", "_root_certificate", "is_orthogonal", "cli._read_rotation",
    "search_isoparametric_pencil", "check_pencil", "matmul", "inverse", "kernel_basis",
)
ENVIRONMENT_KEYS = ("python", "rational_type", "cores", "commit")
POINT_KEYS = {"layer": str, "input": str, "calls": int, "best_s": float, "wall_s": float}


def _reference():
    """perfbench/reference.py, loaded by path so that it stays one file, and
    with no bytecode cache written beside it."""
    spec = importlib.util.spec_from_file_location("reference", ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def _commit(src: Path) -> str:
    """HEAD of the tree's checkout, with "-dirty" when `src` differs from it."""
    # the ceiling keeps git from searching above the tree
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(src.parent.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=src, capture_output=True, text=True,
                              timeout=10, env=env)

    try:
        head = git("rev-parse", "HEAD").stdout.strip()
        if head and git("diff", "--quiet", "HEAD", "--", ".").returncode == 1:
            head += "-dirty"
    except OSError:
        head = ""
    return head or "unknown"


def _inputs(quick: bool) -> dict:
    """name -> (f, R): f = q(U x) for a quartic q and R = U^T, so f(R x) = q."""
    from eikq import (
        NormalFormData, Polynomial, RationalMatrix, assemble_from_normal_form,
        make_canonical_quartic, make_primitive, random_rational_orthogonal, substitute_linear,
    )

    def rotated(q, rotation_seed, block=None):
        u = random_rational_orthogonal(q.dimension, rotation_seed)
        back = u.transpose() if block is None else u.transpose() @ block
        return substitute_linear(q, u), back

    inputs = {"cayley-n4": rotated(make_primitive(4, 4, 2), 4)}
    if quick:
        return inputs
    inputs["cayley-n6"] = rotated(make_primitive(4, 6, 3), 6)
    inputs["cayley-n10"] = rotated(make_primitive(4, 10, 5), 10)
    w = random_rational_orthogonal(5, 1)
    block = RationalMatrix([[*w.row(i), 0] for i in range(5)] + [[0] * 5 + [1]])
    inputs["block-n6"] = rotated(make_canonical_quartic(6, 2), 1, block)
    pencil = (RationalMatrix.diagonal([1, -1, 0]), RationalMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
    theta3 = Polynomial(5, {(1, 1, 1, 1, 0): 16, (2, 0, 1, 0, 1): -8, (0, 2, 1, 0, 1): 8})
    inputs["isoparametric-321"] = rotated(assemble_from_normal_form(NormalFormData(3, 2, pencil, theta3)), 6)
    return inputs


def _calls(f, rotation, rotation_file: str) -> dict:
    """layer -> a call of it on (f, R), with its inputs built beforehand."""
    from eikq import check_eikonal, classify, substitute_linear
    from eikq.classifier import _root_certificate
    from eikq.cli import _read_rotation
    from eikq.polyring import radial_square_root

    g = substitute_linear(f, rotation)
    lead = int(g.coefficient((0,) * (g.dimension - 1) + (4,)))
    return {
        "classify": lambda: classify(f, rotation),
        "substitute_linear": lambda: substitute_linear(f, rotation),
        "check_eikonal[f]": lambda: check_eikonal(f, 4),
        "check_eikonal[g]": lambda: check_eikonal(g, 4),
        "radial_square_root": lambda: radial_square_root(g, lead),
        "_root_certificate": lambda: _root_certificate(g),
        "is_orthogonal": rotation.is_orthogonal,
        "cli._read_rotation": lambda: _read_rotation(rotation_file),
        **_matrix_calls(rotation),
    }


def _matrix_calls(rotation) -> dict:
    """layer -> a call of a matrix layer on the rotation R."""
    from eikq import RationalMatrix

    transposed = rotation.transpose()
    shifted = RationalMatrix.identity(rotation.n_rows) - rotation
    return {
        "matmul": lambda: transposed @ rotation,
        "inverse": rotation.inverse,
        "kernel_basis": shifted.kernel_basis,
    }


def _search_points(quick: bool) -> list:
    """(layer, input, call) for the pencil search and its screen."""
    from eikq import check_pencil, search_isoparametric_pencil
    from eikq.constructors import _seed_matrices

    full = 10 ** 6  # the default budget, which none of these searches reaches
    if quick:
        searches, (p, nu, seed_set) = [(2, 1, 1, full)], (3, 1, (0, 1))
    else:
        searches = [(6, 1, 3, full), (5, 4, 1, 3000), (6, 3, 2, 3000)]
        p, nu, seed_set = 5, 1, (1, 3, 5, 7)
    points = [
        ("search_isoparametric_pencil",
         "p{}-q{}-nu{}-".format(*case) + ("full" if case[3] == full else f"budget{case[3]}"),
         lambda case=case: search_isoparametric_pencil(*case))
        for case in searches
    ]
    seeds = _seed_matrices(p, nu)
    pencil = tuple(seeds[i] for i in seed_set)
    name = f"p{p}-nu{nu}-seeds-" + "-".join(map(str, seed_set))
    return points + [("check_pencil", name, lambda: check_pencil(pencil, p))]


def _serve(src: Path, quick: bool) -> None:
    """The worker: build every point's call on the eikq under `src`, write a
    header line, then answer each request "index calls" with the seconds
    that many calls took."""
    sys.path.insert(0, str(src))
    import eikq.polyring

    backend = type(eikq.polyring.rational(0))
    points = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (f, rotation) in _inputs(quick).items():
            rotation_file = Path(tmp) / f"{name}.txt"
            rotation_file.write_text(
                f"{rotation.n_rows} " + " ".join(str(v) for row in rotation.entries for v in row) + "\n"
            )
            points += [(layer, name, call) for layer, call in _calls(f, rotation, str(rotation_file)).items()]
        if not quick:
            from eikq import random_rational_orthogonal

            rotation = random_rational_orthogonal(16, 16)
            points += [(layer, "cayley-n16", call) for layer, call in _matrix_calls(rotation).items()]
        points += _search_points(quick)
        print(json.dumps({
            "environment": {
                "python": platform.python_version(),
                "rational_type": f"{backend.__module__}.{backend.__qualname__}",
                "cores": len(os.sched_getaffinity(0)),
                "commit": _commit(src),
            },
            "points": [[layer, name] for layer, name, _ in points],
        }), flush=True)
        for line in sys.stdin:
            index, calls = map(int, line.split())
            call = points[index][2]
            start = time.perf_counter()
            for _ in range(calls):
                call()
            print(time.perf_counter() - start, flush=True)


class _Worker:
    """A worker interpreter (`_serve`) on one source tree."""

    def __init__(self, src: Path, quick: bool):
        argv = [sys.executable, str(Path(__file__).resolve()), "--serve", "--src", str(src)]
        self.process = subprocess.Popen(argv + (["--quick"] if quick else []), text=True,
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.header = json.loads(self.process.stdout.readline())

    def seconds(self, index: int, calls: int) -> float:
        self.process.stdin.write(f"{index} {calls}\n")
        self.process.stdin.flush()
        return float(self.process.stdout.readline())

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()


def measure(sources: list[Path], quick: bool) -> list[dict]:
    """One run record per source tree, the trees taking turns run by run."""
    reference = _reference()
    best_of, min_run_s = (1, 0.001) if quick else (7, 0.03)
    workers = []
    try:
        workers += [_Worker(src, quick) for src in sources]
        keys = workers[0].header["points"]
        if any(w.header["points"] != keys for w in workers):
            raise SystemExit("the trees time different points")
        points = [[] for _ in workers]
        for index, (layer, name) in enumerate(keys):
            before = reference.measure()
            once = min(w.seconds(index, 1) for w in workers)
            calls = max(1, math.ceil(min_run_s / max(once, 1e-9)))
            best = [math.inf] * len(workers)
            for turn in range(best_of):
                order = range(len(workers)) if turn % 2 == 0 else reversed(range(len(workers)))
                for k in order:
                    best[k] = min(best[k], workers[k].seconds(index, calls) / calls)
            scale = reference.REFERENCE_S / ((before + reference.measure()) / 2)
            for k, wall in enumerate(best):
                points[k].append({"layer": layer, "input": name, "calls": calls,
                                  "best_s": wall * scale, "wall_s": wall})
    finally:
        for w in workers:
            w.close()
    return [
        {"schema": SCHEMA, "environment": w.header["environment"], "quick": quick,
         "best_of": best_of, "min_run_s": min_run_s, "reference_s": reference.REFERENCE_S,
         "points": p}
        for w, p in zip(workers, points)
    ]


def pair(before: dict, after: dict) -> dict:
    """A pair record: both runs, and after / before for every point."""
    after_s = {(p["layer"], p["input"]): p["best_s"] for p in after["points"]}
    comparison = [
        {"layer": p["layer"], "input": p["input"], "before_s": p["best_s"],
         "after_s": after_s[p["layer"], p["input"]],
         "ratio": after_s[p["layer"], p["input"]] / p["best_s"]}
        for p in before["points"] if (p["layer"], p["input"]) in after_s
    ]
    return {"schema": PAIR_SCHEMA, "before": before, "after": after, "comparison": comparison}


def check(record: dict) -> list[str]:
    """What is wrong with a run or a pair record; empty when it is well formed."""
    if record.get("schema") == PAIR_SCHEMA:
        problems = check(record.get("before", {})) + check(record.get("after", {}))
        if not isinstance(record.get("comparison"), list) or not record["comparison"]:
            problems.append("a pair needs a nonempty comparison")
        return problems
    if record.get("schema") != SCHEMA:
        return [f"schema is not {SCHEMA} or {PAIR_SCHEMA}"]
    problems = [f"environment lacks {key}" for key in ENVIRONMENT_KEYS
                if key not in record.get("environment", {})]
    points = record.get("points") or []
    for point in points:
        for key, kind in POINT_KEYS.items():
            if not isinstance(point.get(key), kind):
                problems.append(f"point {point.get('layer')}/{point.get('input')}: {key} is not {kind.__name__}")
        if isinstance(point.get("best_s"), float) and not point["best_s"] > 0:
            problems.append(f"point {point.get('layer')}/{point.get('input')}: best_s is not positive")
    timed = {point.get("layer") for point in points}
    problems += [f"no point times {layer}" for layer in LAYERS if layer not in timed]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the JSON record here (default: standard output)")
    parser.add_argument("--quick", action="store_true",
                        help="every layer once, on the n = 4 input and the smallest search")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the eikq source tree to time")
    parser.add_argument("--before", type=Path, help="a second tree, timed as the before side of a pair")
    parser.add_argument("--check", metavar="FILE", help="check the schema of a record and exit")
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        _serve(args.src.resolve(), args.quick)
        return 0
    if args.check:
        problems = check(json.loads(Path(args.check).read_text()))
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1 if problems else 0
    if args.before:
        record = pair(*measure([args.before.resolve(), args.src.resolve()], args.quick))
    else:
        (record,) = measure([args.src.resolve()], args.quick)
    problems = check(record)
    if problems:
        raise SystemExit("malformed record: " + "; ".join(problems))
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
