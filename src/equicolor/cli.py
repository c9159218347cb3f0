"""Command-line surface.

Five subcommands: ``threshold`` and ``decide`` expose the closed forms,
``color`` writes witness colorings, ``verify`` judges coloring files,
``table`` sweeps parameter ranges and compares the two families.  Each
handler returns only its result; :func:`main` takes the envelope's
params from the parsed arguments and emits exactly one envelope on
stdout (JSON, or a text rendering of the same content; ``table`` emits
CSV instead of text).  Diagnostics go to stderr.

Exit codes: 0 success, 2 usage or parameter-domain error (including
malformed coloring files), 3 oracle budget exceeded, 4 witness requested
for an instance that is not colorable, 5 internal invariant falsified
(e.g. a constructed coloring failing its own verifier, or a sweep row
contradicting the threshold-equality guarantee; any other exception a
command raises is such a fault too).  Only an oracle that disagrees
with ``decide``'s verdict exits 5 after its envelope is out.

Instances with m = 1 or n = 1 (and K_{1(n)}) are edgeless.  The library
verdicts and the constructor handle them; only the closed-form thresholds
require m >= 2, so ``threshold`` and ``table`` report 1 there.

Inputs that would allocate or loop without bound are refused with exit 2
before any work, by the MAX_* limits below.

The environment variable ``EQUICOLOR_ORACLE_NODE_LIMIT`` overrides the
default node cap used by ``decide --oracle``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Any

# Only the closed forms load with the module: each handler imports the
# rest of the package it runs (``color`` and ``verify`` the data layer,
# ``decide --oracle`` the oracles), so the small commands start faster.
from . import closed_forms as cf
from .closed_forms import Params
from .errors import (
    BudgetExceededError,
    ColoringFileError,
    EquicolorError,
    InternalCheckError,
    NotColorableError,
    ParameterDomainError,
    require_int,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_NOT_COLORABLE = 4
EXIT_INTERNAL = 5

NODE_LIMIT_ENV = "EQUICOLOR_ORACLE_NODE_LIMIT"

# Input limits.  A coloring holds one object per cell and per class, and
# verify allocates one counter per cell of the file's grid: at 10**6 cells
# `color` peaks at 110-208 MB of RSS and `verify` at 95-188 MB, the most
# for 10**6 one-cell classes.  A table row costs one threshold per family.
MAX_COLOR_CELLS = 10**6
MAX_COLOR_K = 10**6
MAX_TABLE_ROWS = 10**5
# `verify` refuses a file (or pipe) with more bytes than the largest file
# `color` can write within those two limits, reading at most one past it.
# Such a file holds every cell once, so its size is fixed by m, n and k;
# it peaks at m = 1, n = 10**6, k = 10**6 (or m and n swapped) with
# 18,777,829 bytes.  Without this a 2x2 header could carry any length.
MAX_VERIFY_BYTES = 18_777_829
# A theta scan over factor size N with gap r takes about
# min(N, isqrt(N*(r-1))) steps: at most 477 more over random N up to 10**9
# and r <= 50, and theta = 46 for r = 1 at N near 9.4 * 10**18.  10**7
# steps take about 1 s.  K_{m(n)} scans over n only; K_m x K_n over
# max(m, n), after the swap to m <= n; the edgeless m = 1 scans nothing.
MAX_THETA_STEPS = 10**7


def _check_limit(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise ParameterDomainError(f"input limit {what} <= {limit}, got {value}")


def _theta_steps(p: Params, family: str) -> int:
    q = p.canonical() if family == "kronecker" else p  # as _threshold_fields does
    return min(q.n, math.isqrt(q.n * (q.r - 1))) if q.m >= 2 else 0


# ============================================================
# Envelope plumbing
# ============================================================


def _render_value(value: Any) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "none"
    return str(value)


_TABLE_COLUMNS = [
    "m", "n", "r", "kronecker", "case", "multipartite", "equal",
    "equ_bound", "equality_guaranteed",
]


def _emit(envelope: dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(envelope, indent=2))
        return
    if fmt == "csv":  # table's rows only
        print(",".join(_TABLE_COLUMNS))
        for row in envelope["result"]["rows"]:
            print(",".join("" if row[c] is None else _render_value(row[c])
                           for c in _TABLE_COLUMNS))
        return
    print(f"command: {envelope['command']}")
    params = " ".join(
        f"{key}={_render_value(v)}" for key, v in envelope["params"].items()
    )
    print(f"params: {params}")
    for key, value in envelope["result"].items():
        if key == "violations":
            print(f"violations: {len(value)}")
            for violation in value:
                print(f"  {violation['kind']}: {violation['detail']}")
        elif key == "coloring" and value is not None:
            print("coloring:")
            for line in value.splitlines():
                print(f"  {line}")
        elif isinstance(value, dict):
            for sub, subval in value.items():
                print(f"{key}.{sub}: {_render_value(subval)}")
        elif isinstance(value, list):
            print(f"{key}: {json.dumps(value)}")
        else:
            print(f"{key}: {_render_value(value)}")


# ============================================================
# Subcommand handlers
# ============================================================

# A handler's answer: the envelope's result, and a falsified internal
# check that main raises once the result is out.
_Answer = tuple[dict[str, Any], InternalCheckError | None]


def _threshold_fields(p: Params, family: str) -> dict[str, Any]:
    """The ``threshold`` result for one family, Kronecker oriented m <= n.

    The closed-form thresholds require m >= 2; the edgeless m = 1
    instances have threshold 1.
    """
    fields: dict[str, Any] = dict.fromkeys(
        ["value", "case", "theta", "gamma", "trichotomy", "residue", "note"]
    )
    q = p.canonical() if family == "kronecker" else p
    if q.m == 1:
        fields.update(value=1, note="edgeless")
        return fields
    if family == "kronecker":
        t = cf.threshold_kronecker(q)
        g = t.gamma
        fields.update(value=t.value, case=t.case.value, theta=t.theta)
    else:
        g = cf.gamma(q)
        theta = cf.theta_balanced(q.n, q.r)
        fields.update(value=q.m * cf.ceil_div(q.n, theta + q.r), theta=theta)
    fields.update(gamma=g.value, trichotomy=g.trichotomy.value, residue=g.residue)
    if q is not p:
        fields["note"] = "factors swapped to m <= n"
    return fields


def _cmd_threshold(args: argparse.Namespace) -> _Answer:
    p = Params(args.m, args.n, args.r)
    _check_limit("theta scan steps", _theta_steps(p, args.family), MAX_THETA_STEPS)
    return _threshold_fields(p, args.family), None


def _node_limit_from_env(default: int) -> int:
    raw = os.environ.get(NODE_LIMIT_ENV)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ParameterDomainError(
            f"{NODE_LIMIT_ENV} must be an integer, got {raw!r}"
        ) from None
    require_int(NODE_LIMIT_ENV, value, 1)
    return value


# Per family: the closed-form verdict, and the name in equicolor.oracle of
# the oracle that checks it.
_DECIDERS = {
    "kronecker": (cf.kronecker_verdict, "oracle_kronecker_colorable"),
    "multipartite": (cf.multipartite_verdict, "oracle_multipartite_colorable"),
}


def _cmd_decide(args: argparse.Namespace) -> _Answer:
    p = Params(args.m, args.n, args.r)
    if args.family == "kronecker":  # K_{m(n)} is not symmetric in m and n
        p = p.canonical()
    verdict, oracle_name = _DECIDERS[args.family]
    colorable, reason = verdict(p, args.k)

    result: dict[str, Any] = {"colorable": colorable, "reason": reason, "oracle": None}
    if args.oracle:
        from . import oracle

        limit = _node_limit_from_env(oracle.DEFAULT_BUDGET.node_limit)
        budget = oracle.OracleBudget(node_limit=limit)
        oracle_says = getattr(oracle, oracle_name)(p, args.k, budget)
        result["oracle"] = {"colorable": oracle_says, "agrees": oracle_says == colorable}
        if oracle_says != colorable:
            return result, InternalCheckError(
                f"formula says {colorable}, oracle says {not colorable} for "
                f"m={args.m} n={args.n} r={args.r} k={args.k} ({args.family})"
            )
    return result, None


def _cmd_color(args: argparse.Namespace) -> _Answer:
    from .construct import color_kronecker
    from .files import format_coloring
    from .grid import verify

    p = Params(args.m, args.n, args.r)
    _check_limit("m*n", p.m * p.n, MAX_COLOR_CELLS)
    _check_limit("k", args.k, MAX_COLOR_K)
    q = p.canonical()
    coloring = color_kronecker(q, args.k)

    report = verify(args.r, coloring)
    if not report.valid:
        raise InternalCheckError(
            "constructed coloring failed verification: "
            + "; ".join(v.detail for v in report.violations)
        )

    note = "factors swapped to m <= n" if q is not p else None
    text = format_coloring(coloring)
    result: dict[str, Any] = {
        "m": coloring.m,
        "n": coloring.n,
        "k": coloring.k,
        "sizes": coloring.sizes(),
        "valid": True,
        "out": args.out,
        "coloring": text if args.out is None else None,
        "note": note,
    }
    if args.out is not None:
        try:
            with open(args.out, "wb") as stream:
                stream.write(text.encode("ascii"))
        except OSError as exc:
            raise ParameterDomainError(f"cannot write {args.out}: {exc}") from exc
    return result, None


def _read_bytes(path: str) -> bytes:
    """The file's bytes, within the byte limit."""
    try:
        with open(path, "rb") as stream:
            data = stream.read(MAX_VERIFY_BYTES + 1)
    except OSError as exc:
        raise ParameterDomainError(f"cannot read {path}: {exc}") from exc
    _check_limit("file bytes", len(data), MAX_VERIFY_BYTES)
    return data


def _cmd_verify(args: argparse.Namespace) -> _Answer:
    from .files import decode_ascii, parse_coloring
    from .grid import verify

    # Neither the bytes nor the text outlive the parse; no newline is
    # translated.
    coloring = parse_coloring(decode_ascii(_read_bytes(args.file)))
    _check_limit("m*n", coloring.m * coloring.n, MAX_COLOR_CELLS)
    report = verify(args.r, coloring)
    result = {
        "valid": report.valid,
        "m": coloring.m,
        "n": coloring.n,
        "k": coloring.k,
        "violations": [
            {"kind": v.kind.value, "detail": v.detail} for v in report.violations
        ],
    }
    return result, None


_RANGE = re.compile(r"(\d+)(?:\.\.(\d+))?")


def _parse_range(text: str, name: str) -> range:
    match = _RANGE.fullmatch(text)  # ``$`` would also match before a final newline
    if match is None:
        raise ParameterDomainError(
            f"{name} range must look like '4' or '2..40', got {text!r}"
        )
    try:
        lo, hi = int(match.group(1)), int(match.group(2) or match.group(1))
    except ValueError:  # more digits than int() reads
        raise ParameterDomainError(f"{name} range bound has too many digits") from None
    if lo < 1:
        raise ParameterDomainError(f"{name} range must start at >= 1, got {lo}")
    return range(lo, hi + 1)  # empty when hi < lo


def _table_row(m: int, n: int, r: int) -> dict[str, Any]:
    kron = _threshold_fields(Params(m, n, r), "kronecker")
    multi = _threshold_fields(Params(m, n, r), "multipartite")
    row: dict[str, Any] = {
        "m": m,
        "n": n,
        "r": r,
        "kronecker": kron["value"],
        "case": kron["case"] or kron["note"],
        "multipartite": multi["value"],
        "equal": kron["value"] == multi["value"],
        "equ_bound": None,
        "equality_guaranteed": False,
    }
    if m >= 2 and r >= 2:
        bound = cf.equ_bound(m, r)
        row["equ_bound"] = bound
        row["equality_guaranteed"] = n >= bound
    return row


def _cmd_table(args: argparse.Namespace) -> _Answer:
    m_range = _parse_range(args.m, "m")
    n_range = _parse_range(args.n, "n")
    r_range = _parse_range(args.r, "r")
    count = math.prod(max(0, x.stop - x.start) for x in (m_range, n_range, r_range))
    _check_limit("rows", count, MAX_TABLE_ROWS)
    if count:  # no row scans longer than the last, at the largest m, n and r
        last = Params(m_range[-1], n_range[-1], r_range[-1])
        steps = max(_theta_steps(last, "kronecker"), _theta_steps(last, "multipartite"))
        _check_limit("rows * theta scan steps", count * steps, MAX_THETA_STEPS)
    rows = []
    for m in m_range:
        for n in n_range:
            for r in r_range:
                row = _table_row(m, n, r)
                if row["equality_guaranteed"] and not row["equal"]:
                    # The guarantee says thresholds coincide from the
                    # bound on; a counterexample is an internal
                    # contradiction, not a user error.
                    raise InternalCheckError(
                        f"m={m} n={n} r={r} has n >= {row['equ_bound']} but "
                        f"thresholds {row['kronecker']} != {row['multipartite']}"
                    )
                rows.append(row)
    return {"rows": rows}, None


# ============================================================
# Parser and entry point
# ============================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equicolor",
        description=(
            "r-equitable chromatic thresholds of Kronecker products of "
            "complete graphs and of complete multipartite graphs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mnr(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("-m", type=int, required=True, help="first factor size")
        sp.add_argument("-n", type=int, required=True, help="second factor size")
        sp.add_argument("-r", type=int, required=True, help="allowed class size gap")

    def add_format(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--format", choices=["json", "text"], default="text",
            help="output format (default text)",
        )

    sp = sub.add_parser("threshold", help="r-equitable chromatic threshold")
    add_mnr(sp)
    sp.add_argument(
        "--family", choices=["kronecker", "multipartite"], required=True,
        help="which graph family",
    )
    add_format(sp)
    sp.set_defaults(handler=_cmd_threshold)

    sp = sub.add_parser("decide", help="is the instance r-equitably k-colorable?")
    add_mnr(sp)
    sp.add_argument("-k", type=int, required=True, help="number of color classes")
    sp.add_argument(
        "--family", choices=["kronecker", "multipartite"], default="kronecker",
    )
    sp.add_argument(
        "--oracle", action="store_true",
        help="also run the brute-force oracle and report concurrence",
    )
    add_format(sp)
    sp.set_defaults(handler=_cmd_decide)

    sp = sub.add_parser("color", help="construct a witness coloring (Kronecker)")
    add_mnr(sp)
    sp.add_argument("-k", type=int, required=True, help="number of color classes")
    sp.add_argument(
        "--out", help="write the coloring file here; omit to inline it"
    )
    add_format(sp)
    sp.set_defaults(handler=_cmd_color)

    sp = sub.add_parser("verify", help="judge a coloring file")
    sp.add_argument("-r", type=int, required=True, help="allowed class size gap")
    sp.add_argument("file", help="coloring file in equicolor v1 format")
    add_format(sp)
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("table", help="sweep ranges and compare both families")
    sp.add_argument("-m", required=True, help="range like '4' or '2..6'")
    sp.add_argument("-n", required=True, help="range like '7' or '2..40'")
    sp.add_argument("-r", required=True, help="range like '2' or '1..4'")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.set_defaults(handler=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = {
        key: value for key, value in vars(args).items()
        if key not in ("command", "format", "handler")
    }
    try:
        result, failure = args.handler(args)
    except Exception as exc:  # mapped to its exit code below
        result, failure = None, exc
    if result is not None:  # output errors, such as a closed pipe, propagate
        _emit({
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "params": params,
            "result": result,
        }, args.format)
    if failure is None:
        return EXIT_OK
    if isinstance(failure, (ParameterDomainError, ColoringFileError)):
        print(f"error: {failure}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(failure, BudgetExceededError):
        print(f"oracle budget exceeded: {failure}", file=sys.stderr)
        return EXIT_BUDGET
    if isinstance(failure, NotColorableError):
        print(f"not colorable: {failure}", file=sys.stderr)
        return EXIT_NOT_COLORABLE
    if not isinstance(failure, EquicolorError):  # e.g. RecursionError: name it
        failure = f"{type(failure).__name__}: {failure}"
    print(f"internal invariant falsified: {failure}", file=sys.stderr)
    return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
