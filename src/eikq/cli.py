"""Command line front end.

Verbs:

    construct      build a polynomial (primitive family or canonical quartic)
    verify         check |grad f|^2 = g^2 |x|^(2g-2) for a polynomial file
    classify       primitive vs isoparametric for a quartic
    normalform     extract the rotated normal form of a quartic
    congruent      decide congruence of two primitive classes
    search-pencil  enumerate isoparametric pencil candidates

Polynomials travel as poly-text (see `eikq.polyring`); rotations as a file
holding n followed by n^2 rationals row-major, comments allowed.  Exit codes:
0 affirmative, 1 negative, 2 bad usage or bad input, 3 numerically
inconclusive, 4 I/O failure, 5 internal error (an exception inside eikq,
reported on stderr; never a verdict).  A verb writes one report, negative
outcomes included: with `--json` a byte-stable JSON object whose first key is
"schema_version": "eikq-report-1", otherwise text whose first line is colored
when it goes to a terminal (set EIKQ_COLOR=0 to disable ANSI color).  `-o`,
where a verb has it, receives the report in either format instead of stdout.
Errors (exit 2, 4 and 5) are text on stderr, with nothing on stdout.

`classify` and `normalform` take the same --rotation, --exact and --tol.
On an exactly eikonal, non-isoparametric f, `normalform` prints the exact
normal form that `classify` judges f by, marked "negated" when it is that
of -f.  Any other f `classify` decides by a closed-form float certificate,
while `normalform` reads its normal form at a sphere maximizer reached by
one closed-form great-circle step.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import traceback
from typing import NamedTuple, Sequence

from .analysis import check_eikonal, scientific
from .classifier import (
    SCHEMA_VERSION,
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_EIKONAL,
    classify,
    congruent_primitive,
)
from .constructors import (
    InfeasibleParameters,
    make_canonical_quartic,
    make_primitive,
    normal_form_data_to_text,
    search_isoparametric_pencil,
)
from .matrices import RationalMatrix
from .normalform import NotEikonalEvidence, obtain_normal_form
from .polyring import _meaningful_lines, poly_from_text, poly_to_text

_GREEN, _RED, _YELLOW = "32", "31", "33"


class _Answer(NamedTuple):
    """What a verb found, before anything is written.

    `fields` follow "schema_version" in the JSON report; `text` is the plain
    report, and `color` (an ANSI code, or None) colors its first line.
    """

    code: int
    fields: dict
    text: str
    color: str | None = None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(answer: _Answer, as_json: bool, path: str | None) -> None:
    """The one writer: the JSON or text report, to `path` or stdout."""
    if as_json:
        text = json.dumps({"schema_version": SCHEMA_VERSION, **answer.fields}, indent=2) + "\n"
    else:
        text = answer.text if answer.text.endswith("\n") else answer.text + "\n"
    with contextlib.ExitStack() as stack:
        if path is None or path == "-":
            stream = sys.stdout
        else:
            stream = stack.enter_context(open(path, "w", encoding="utf-8"))
        if (answer.color and not as_json and os.environ.get("EIKQ_COLOR", "") != "0"
                and stream.isatty()):
            first, rest = text.split("\n", 1)
            text = f"\x1b[{answer.color}m{first}\x1b[0m\n{rest}"
        stream.write(text)


def _read_rotation(path: str) -> RationalMatrix:
    tokens = [tok for _, line in _meaningful_lines(_read_text(path)) for tok in line.split()]
    if not tokens:
        raise ValueError("rotation file is empty")
    try:
        n = int(tokens[0])
    except ValueError:
        raise ValueError("rotation file must start with the dimension") from None
    if n < 1 or len(tokens) != 1 + n * n:
        raise ValueError(f"rotation file must hold n followed by n^2 entries, n = {n}")
    try:
        return RationalMatrix([tokens[1 + i * n : 1 + (i + 1) * n] for i in range(n)])
    except (ValueError, ZeroDivisionError):
        raise ValueError("rotation entries must be rationals") from None


def _cmd_construct(args) -> _Answer:
    if args.type == "primitive":
        if args.g is None or args.n is None or args.dimh is None:
            raise ValueError("construct --type primitive needs --g, --n, --dimh")
        f = make_primitive(args.g, args.n, args.dimh)
        header = f"primitive g={args.g} n={args.n} dimh={args.dimh}"
    else:
        if args.n is None or args.k is None:
            raise ValueError("construct --type canonical needs --n, --k")
        if args.g not in (None, 4):
            raise ValueError("canonical quartics have degree 4")
        f = make_canonical_quartic(args.n, args.k)
        header = f"canonical quartic n={args.n} k={args.k}"
    text = poly_to_text(f, header_comment=header)
    return _Answer(0, {"kind": args.type, "n": f.dimension, "poly": text}, text)


def _cmd_verify(args) -> _Answer:
    f = poly_from_text(_read_text(args.file))
    residual = check_eikonal(f, args.g)
    deviation = residual.max_coeff
    ok = deviation <= args.tol
    if residual.is_zero:
        verdict = "eikonal (residual exactly zero)"
    elif ok:
        verdict = f"eikonal within tol (residual {scientific(deviation)})"
    else:
        verdict = f"not eikonal (residual {scientific(deviation)})"
    fields = {
        "g": args.g,
        "n": f.dimension,
        "eikonal": ok,
        "residual": residual.to_json_dict(),
        "magnitude": residual.magnitude,
        "tol": args.tol,
    }
    text = f"degree {args.g}, n = {f.dimension}: {verdict}"
    return _Answer(0 if ok else 1, fields, text, _GREEN if ok else _RED)


def _cmd_classify(args) -> _Answer:
    f = poly_from_text(_read_text(args.file))
    rotation = _read_rotation(args.rotation) if args.rotation else None
    report = classify(f, rotation=rotation, allow_float=not args.exact, tol=args.tol)
    code, color = {
        VERDICT_NOT_EIKONAL: (1, _RED),
        VERDICT_INCONCLUSIVE: (3, _YELLOW),
    }.get(report.verdict, (0, _GREEN))
    return _Answer(code, report.to_json_dict(), "\n".join(report.summary_lines()), color)


def _cmd_normalform(args) -> _Answer:
    f = poly_from_text(_read_text(args.file))
    rotation = _read_rotation(args.rotation) if args.rotation else None
    try:
        nf, negated = obtain_normal_form(
            f, rotation, allow_float=not args.exact, tol=args.tol
        )
    except NotEikonalEvidence as evidence:
        fields = {"verdict": VERDICT_NOT_EIKONAL, "detail": str(evidence)}
        return _Answer(1, fields, f"not eikonal: {evidence}", _RED)
    fields = {"negated": True} if negated else {}
    fields.update(nf.to_json_dict())
    lines = ["normal form of -f"] if negated else []
    lines.append(f"p = {nf.p}, q = {nf.q}, arithmetic = {nf.arithmetic}")
    lines.append(f"phi eigenvalues: {list(nf.phi_eigenvalues)}")
    lines.append(f"extraction residual: {scientific(nf.extraction_residual)}")
    for index, matrix in enumerate(nf.pencil, start=1):
        lines.append(f"A_{index}:")
        for i in range(matrix.n_rows):
            lines.append("  " + " ".join(str(matrix[i, j]) for j in range(matrix.n_cols)))
    for name, poly in (
        ("theta4", nf.theta4),
        ("theta3", nf.theta3),
        ("theta2", nf.theta2),
        ("theta0", nf.theta0),
    ):
        lines.append(f"{name}:")
        lines.extend("  " + line for line in poly_to_text(poly).splitlines())
    return _Answer(0, fields, "\n".join(lines))


def _cmd_congruent(args) -> _Answer:
    answer = congruent_primitive(args.n, args.d1, args.d2)
    word = "congruent" if answer else "not congruent"
    return _Answer(
        0 if answer else 1,
        {"n": args.n, "d1": args.d1, "d2": args.d2, "congruent": answer},
        f"dim H = {args.d1} and dim H = {args.d2} in R^{args.n}: {word}",
        _GREEN if answer else _RED,
    )


def _cmd_search_pencil(args) -> _Answer:
    fields = {"p": args.p, "q": args.q, "nu": args.nu, "budget": args.budget}
    try:
        hits = search_isoparametric_pencil(args.p, args.q, args.nu, budget=args.budget)
    except InfeasibleParameters as reason:
        fields.update(count=0, candidates=[], detail=str(reason))
        return _Answer(1, fields, f"infeasible: {reason}", _RED)
    candidates = [normal_form_data_to_text(h) for h in hits]
    fields.update(count=len(hits), candidates=candidates)
    pieces = [f"# candidates: {len(hits)}"]
    for index, candidate in enumerate(candidates, start=1):
        pieces.append(f"# candidate {index}")
        pieces.append(candidate.rstrip("\n"))
    return _Answer(0 if hits else 1, fields, "\n".join(pieces))


def _tolerance(text: str) -> float:
    """A --tol value: a finite number >= 0; argparse exits 2 on anything else."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _add_quartic_input(sub) -> None:
    """The input arguments `classify` and `normalform` share."""
    sub.add_argument("file", help="poly-text file, or - for stdin")
    sub.add_argument("--tol", type=_tolerance, default=1e-9,
                     help="numeric acceptance threshold (default 1e-9)")
    sub.add_argument("--rotation", metavar="FILE",
                     help="exact orthogonal matrix: n then n^2 rationals")
    sub.add_argument("--exact", action="store_true",
                     help="refuse the floating-point fallback")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="eikq",
        description="Construct, verify, and classify eikonal polynomials.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    verbs = {}
    for name, handler, summary in (
        ("construct", _cmd_construct, "build a polynomial and print it as poly-text"),
        ("verify", _cmd_verify, "check the eikonal identity for a polynomial file"),
        ("classify", _cmd_classify, "primitive vs isoparametric for a quartic"),
        ("normalform", _cmd_normalform, "extract the rotated normal form of a quartic"),
        ("congruent", _cmd_congruent, "decide congruence of two primitive classes"),
        ("search-pencil", _cmd_search_pencil, "enumerate isoparametric pencil candidates"),
    ):
        verbs[name] = subparsers.add_parser(name, help=summary)
        verbs[name].add_argument("--json", action="store_true", help="emit a JSON report")
        verbs[name].set_defaults(handler=handler)

    construct = verbs["construct"]
    construct.add_argument("--type", choices=("primitive", "canonical"), required=True)
    construct.add_argument("--g", type=int, help="degree (primitive only)")
    construct.add_argument("--n", type=int, help="ambient dimension")
    construct.add_argument("--dimh", type=int, help="dim H (primitive only)")
    construct.add_argument("--k", type=int, help="split size (canonical only)")
    construct.add_argument("-o", "--output", help="output file (default stdout)")

    verify = verbs["verify"]
    verify.add_argument("file", help="poly-text file, or - for stdin")
    verify.add_argument("--g", type=int, default=4, help="degree (default 4)")
    verify.add_argument("--tol", type=_tolerance, default=1e-9,
                        help="numeric acceptance threshold (default 1e-9)")

    _add_quartic_input(verbs["classify"])
    _add_quartic_input(verbs["normalform"])

    cong = verbs["congruent"]
    cong.add_argument("--n", type=int, required=True, help="ambient dimension")
    cong.add_argument("d1", type=int, help="first dim H")
    cong.add_argument("d2", type=int, help="second dim H")

    search = verbs["search-pencil"]
    search.add_argument("--p", type=int, required=True)
    search.add_argument("--q", type=int, required=True)
    search.add_argument("--nu", type=int, required=True)
    search.add_argument("--budget", type=int, default=10 ** 6,
                        help="max candidates to examine (default 1e6)")
    search.add_argument("-o", "--output", help="output file (default stdout)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        answer = args.handler(args)
        _write(answer, args.json, getattr(args, "output", None))
        return answer.code
    except ValueError as exc:  # PolyTextError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        # anything else is a defect in eikq; exit 1 would read as "negative"
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
