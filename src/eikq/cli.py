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
reported on stderr; never a verdict).  `--json` produces byte-stable reports
carrying "schema_version": "eikq-report-1".  Set EIKQ_COLOR=0 to disable
ANSI color.

`classify` and `normalform` take the same --rotation, --exact, --tol and
--seed and read the same normal form, through `normalform.obtain_normal_form`;
when that is the normal form of -f, `normalform` says so ("negated").
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback
from typing import Sequence

from .analysis import check_eikonal
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
from .polyring import _meaningful_lines, poly_from_text, poly_to_text, rational

_GREEN, _RED, _YELLOW = "32", "31", "33"


def _want_color(stream) -> bool:
    if os.environ.get("EIKQ_COLOR", "") == "0":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _styled(text: str, code: str, stream) -> str:
    if not _want_color(stream):
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _read_poly(path: str):
    return poly_from_text(_read_text(path))


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
        values = [rational(tok) for tok in tokens[1:]]
    except (ValueError, ZeroDivisionError):
        raise ValueError("rotation entries must be rationals") from None
    rows = [values[i * n : (i + 1) * n] for i in range(n)]
    return RationalMatrix(rows)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _cmd_construct(args) -> int:
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
    if args.json:
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "kind": args.type,
                "n": f.dimension,
                "poly": text,
            }
        )
    else:
        _write_text(args.output, text)
    return 0


def _cmd_verify(args) -> int:
    f = _read_poly(args.file)
    residual = check_eikonal(f, args.g)
    ok = residual.is_zero or residual.magnitude <= args.tol
    if args.json:
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "g": args.g,
                "n": f.dimension,
                "eikonal": ok,
                "residual": residual.to_json_dict(),
                "magnitude": residual.magnitude,
                "tol": args.tol,
            }
        )
    else:
        if residual.is_zero:
            verdict = _styled("eikonal (residual exactly zero)", _GREEN, sys.stdout)
        elif ok:
            verdict = _styled(
                f"eikonal within tol (residual {residual.magnitude:.3e})",
                _GREEN,
                sys.stdout,
            )
        else:
            verdict = _styled(
                f"not eikonal (residual {residual.magnitude:.3e})", _RED, sys.stdout
            )
        print(f"degree {args.g}, n = {f.dimension}: {verdict}")
    return 0 if ok else 1


def _cmd_classify(args) -> int:
    f = _read_poly(args.file)
    rotation = _read_rotation(args.rotation) if args.rotation else None
    report = classify(
        f,
        rotation=rotation,
        allow_float=not args.exact,
        tol=args.tol,
        seed=args.seed,
    )
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        code = {
            VERDICT_NOT_EIKONAL: _RED,
            VERDICT_INCONCLUSIVE: _YELLOW,
        }.get(report.verdict, _GREEN)
        lines = report.summary_lines()
        lines[0] = _styled(lines[0], code, sys.stdout)
        print("\n".join(lines))
    if report.verdict == VERDICT_NOT_EIKONAL:
        return 1
    if report.verdict == VERDICT_INCONCLUSIVE:
        return 3
    return 0


def _cmd_normalform(args) -> int:
    f = _read_poly(args.file)
    rotation = _read_rotation(args.rotation) if args.rotation else None
    eikonal = None if rotation is not None else check_eikonal(f, 4)
    try:
        nf, negated = obtain_normal_form(
            f, rotation, eikonal, allow_float=not args.exact, tol=args.tol, seed=args.seed
        )
    except NotEikonalEvidence as evidence:
        print(_styled(f"not eikonal: {evidence}", _RED, sys.stdout))
        return 1
    if args.json:
        payload = {"schema_version": SCHEMA_VERSION}
        if negated:
            payload["negated"] = True
        payload.update(nf.to_json_dict())
        _emit_json(payload)
        return 0
    if negated:
        print("normal form of -f")
    print(f"p = {nf.p}, q = {nf.q}, arithmetic = {nf.arithmetic}")
    print(f"phi eigenvalues: {list(nf.phi_eigenvalues)}")
    print(f"extraction residual: {nf.extraction_residual:.3e}")
    for index, matrix in enumerate(nf.pencil, start=1):
        print(f"A_{index}:")
        for i in range(matrix.n_rows):
            print("  " + " ".join(str(matrix[i, j]) for j in range(matrix.n_cols)))
    for name, poly in (
        ("theta4", nf.theta4),
        ("theta3", nf.theta3),
        ("theta2", nf.theta2),
        ("theta0", nf.theta0),
    ):
        print(f"{name}:")
        for line in poly_to_text(poly).splitlines():
            print("  " + line)
    return 0


def _cmd_congruent(args) -> int:
    answer = congruent_primitive(args.n, args.d1, args.d2)
    if args.json:
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "n": args.n,
                "d1": args.d1,
                "d2": args.d2,
                "congruent": answer,
            }
        )
    else:
        word = "congruent" if answer else "not congruent"
        code = _GREEN if answer else _RED
        print(
            _styled(
                f"dim H = {args.d1} and dim H = {args.d2} in R^{args.n}: {word}",
                code,
                sys.stdout,
            )
        )
    return 0 if answer else 1


def _cmd_search_pencil(args) -> int:
    try:
        hits = search_isoparametric_pencil(args.p, args.q, args.nu, budget=args.budget)
    except InfeasibleParameters as reason:
        print(_styled(f"infeasible: {reason}", _RED, sys.stdout))
        return 1
    if args.json:
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "p": args.p,
                "q": args.q,
                "nu": args.nu,
                "budget": args.budget,
                "count": len(hits),
                "candidates": [normal_form_data_to_text(h) for h in hits],
            }
        )
        return 0 if hits else 1
    pieces = [f"# candidates: {len(hits)}"]
    for index, hit in enumerate(hits, start=1):
        pieces.append(f"# candidate {index}")
        pieces.append(normal_form_data_to_text(hit).rstrip("\n"))
    _write_text(args.output, "\n".join(pieces) + "\n")
    return 0 if hits else 1


def _tolerance(text: str) -> float:
    """A --tol value: a finite number >= 0; argparse exits 2 on anything else."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _add_common(sub, *, tol=True, seed=True, rotation=False, exact=False):
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    if tol:
        sub.add_argument("--tol", type=_tolerance, default=1e-9,
                         help="numeric acceptance threshold (default 1e-9)")
    if seed:
        sub.add_argument("--seed", type=int, default=0,
                         help="seed for numeric starting points (default 0)")
    if rotation:
        sub.add_argument("--rotation", metavar="FILE",
                         help="exact orthogonal matrix: n then n^2 rationals")
    if exact:
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

    construct = subparsers.add_parser(
        "construct", help="build a polynomial and print it as poly-text"
    )
    construct.add_argument("--type", choices=("primitive", "canonical"), required=True)
    construct.add_argument("--g", type=int, help="degree (primitive only)")
    construct.add_argument("--n", type=int, help="ambient dimension")
    construct.add_argument("--dimh", type=int, help="dim H (primitive only)")
    construct.add_argument("--k", type=int, help="split size (canonical only)")
    construct.add_argument("-o", "--output", help="output file (default stdout)")
    construct.add_argument("--json", action="store_true", help="emit a JSON report")
    construct.set_defaults(handler=_cmd_construct)

    verify = subparsers.add_parser(
        "verify", help="check the eikonal identity for a polynomial file"
    )
    verify.add_argument("file", help="poly-text file, or - for stdin")
    verify.add_argument("--g", type=int, default=4, help="degree (default 4)")
    _add_common(verify, seed=False)
    verify.set_defaults(handler=_cmd_verify)

    cls = subparsers.add_parser(
        "classify", help="primitive vs isoparametric for a quartic"
    )
    cls.add_argument("file", help="poly-text file, or - for stdin")
    _add_common(cls, rotation=True, exact=True)
    cls.set_defaults(handler=_cmd_classify)

    nform = subparsers.add_parser(
        "normalform", help="extract the rotated normal form of a quartic"
    )
    nform.add_argument("file", help="poly-text file, or - for stdin")
    _add_common(nform, rotation=True, exact=True)
    nform.set_defaults(handler=_cmd_normalform)

    cong = subparsers.add_parser(
        "congruent", help="decide congruence of two primitive classes"
    )
    cong.add_argument("--n", type=int, required=True, help="ambient dimension")
    cong.add_argument("d1", type=int, help="first dim H")
    cong.add_argument("d2", type=int, help="second dim H")
    cong.add_argument("--json", action="store_true", help="emit a JSON report")
    cong.set_defaults(handler=_cmd_congruent)

    search = subparsers.add_parser(
        "search-pencil", help="enumerate isoparametric pencil candidates"
    )
    search.add_argument("--p", type=int, required=True)
    search.add_argument("--q", type=int, required=True)
    search.add_argument("--nu", type=int, required=True)
    search.add_argument("--budget", type=int, default=10 ** 6,
                        help="max candidates to examine (default 1e6)")
    search.add_argument("-o", "--output", help="output file (default stdout)")
    search.add_argument("--json", action="store_true", help="emit a JSON report")
    search.set_defaults(handler=_cmd_search_pencil)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
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
