"""Command-line surface.

Five subcommands: ``threshold`` and ``decide`` expose the closed forms,
``color`` writes witness colorings, ``verify`` judges coloring files,
``table`` sweeps parameter ranges and compares the two families.  Every
successful command emits exactly one output envelope on stdout (JSON or
a text rendering of the same content; ``table`` emits CSV instead when
asked).  Diagnostics go to stderr.

Exit codes: 0 success, 2 usage or parameter-domain error (including
malformed coloring files), 3 oracle budget exceeded, 4 witness requested
for an instance that is not colorable, 5 internal invariant falsified
(e.g. a constructed coloring failing its own verifier, or a sweep row
contradicting the threshold-equality guarantee).

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
from dataclasses import replace
from typing import Any

from . import closed_forms as cf
from .closed_forms import Params
from .construct import color_kronecker
from .errors import (
    BudgetExceededError,
    ColoringFileError,
    EquicolorError,
    GridBoundsError,
    InternalCheckError,
    NotColorableError,
    ParameterDomainError,
)
from .files import format_coloring, read_coloring, write_coloring
from .grid import verify
from .oracle import (
    DEFAULT_BUDGET,
    oracle_kronecker_colorable,
    oracle_multipartite_colorable,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_NOT_COLORABLE = 4
EXIT_INTERNAL = 5

NODE_LIMIT_ENV = "EQUICOLOR_ORACLE_NODE_LIMIT"

# Input limits.  A coloring holds one object per cell and per class (about
# 110 MB of RSS at 10**6 cells), and verify allocates one counter per cell
# of the file's grid; a table row costs one threshold per family.
MAX_COLOR_CELLS = 10**6
MAX_COLOR_K = 10**6
MAX_TABLE_ROWS = 10**5
# A theta scan over factor size N with gap r takes about
# min(N, isqrt(N*(r-1))) steps: at most 477 more over random N up to 10**9
# and r <= 50, and theta = 46 for r = 1 at N near 9.4 * 10**18.  10**7
# steps take about 1 s.
MAX_THETA_STEPS = 10**7


def _check_limit(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise ParameterDomainError(f"input limit {what} <= {limit}, got {value}")


def _theta_steps(m: int, n: int, r: int) -> int:
    big = max(m, n)
    return min(big, math.isqrt(big * (r - 1)))


# One fixed schema covering every envelope this version emits.  Bump
# SCHEMA_VERSION on any breaking change.
ENVELOPE_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "command", "params", "result"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": ["threshold", "decide", "color", "verify", "table"]},
        "params": {"type": "object"},
        "result": {"type": "object"},
    },
    "allOf": [
        {
            "if": {"properties": {"command": {"const": "threshold"}}},
            "then": {
                "properties": {
                    "result": {
                        "type": "object",
                        "required": ["value", "case", "theta", "gamma",
                                     "trichotomy", "residue", "note"],
                        "properties": {
                            "value": {"type": "integer", "minimum": 1},
                            "case": {"type": ["string", "null"]},
                            "theta": {"type": ["integer", "null"]},
                            "gamma": {"type": ["integer", "null"]},
                            "trichotomy": {"type": ["string", "null"]},
                            "residue": {"type": ["integer", "null"]},
                            "note": {"type": ["string", "null"]},
                        },
                    }
                }
            },
        },
        {
            "if": {"properties": {"command": {"const": "decide"}}},
            "then": {
                "properties": {
                    "result": {
                        "type": "object",
                        "required": ["colorable", "reason", "oracle"],
                        "properties": {
                            "colorable": {"type": "boolean"},
                            "reason": {"type": "string"},
                            "oracle": {
                                "type": ["object", "null"],
                                "required": ["colorable", "agrees"],
                                "properties": {
                                    "colorable": {"type": "boolean"},
                                    "agrees": {"type": "boolean"},
                                },
                            },
                        },
                    }
                }
            },
        },
        {
            "if": {"properties": {"command": {"const": "color"}}},
            "then": {
                "properties": {
                    "result": {
                        "type": "object",
                        "required": ["m", "n", "k", "sizes", "valid", "out",
                                     "coloring", "note"],
                        "properties": {
                            "m": {"type": "integer", "minimum": 1},
                            "n": {"type": "integer", "minimum": 1},
                            "k": {"type": "integer", "minimum": 1},
                            "sizes": {"type": "array",
                                      "items": {"type": "integer", "minimum": 0}},
                            "valid": {"const": True},
                            "out": {"type": ["string", "null"]},
                            "coloring": {"type": ["string", "null"]},
                            "note": {"type": ["string", "null"]},
                        },
                    }
                }
            },
        },
        {
            "if": {"properties": {"command": {"const": "verify"}}},
            "then": {
                "properties": {
                    "result": {
                        "type": "object",
                        "required": ["valid", "m", "n", "k", "violations"],
                        "properties": {
                            "valid": {"type": "boolean"},
                            "m": {"type": "integer", "minimum": 1},
                            "n": {"type": "integer", "minimum": 1},
                            "k": {"type": "integer", "minimum": 1},
                            "violations": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "required": ["kind", "detail"],
                                    "properties": {
                                        "kind": {"enum": ["not-partition",
                                                          "adjacent-pair",
                                                          "imbalance"]},
                                        "detail": {"type": "string"},
                                    },
                                },
                            },
                        },
                    }
                }
            },
        },
        {
            "if": {"properties": {"command": {"const": "table"}}},
            "then": {
                "properties": {
                    "result": {
                        "type": "object",
                        "required": ["rows"],
                        "properties": {"rows": {"type": "array"}},
                    }
                }
            },
        },
    ],
}


# ============================================================
# Envelope plumbing
# ============================================================


def _envelope(command: str, params: dict[str, Any], result: dict[str, Any]) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "result": result,
    }


def _render_value(value: Any) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "none"
    return str(value)


def _emit(envelope: dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(envelope, indent=2))
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
        fields.update(
            value=cf.threshold_multipartite(q), theta=cf.theta_balanced(q.n, q.r)
        )
    fields.update(gamma=g.value, trichotomy=g.trichotomy.value, residue=g.residue)
    if q is not p:
        fields["note"] = "factors swapped to m <= n"
    return fields


def _cmd_threshold(args: argparse.Namespace) -> int:
    params = {"m": args.m, "n": args.n, "r": args.r, "family": args.family}
    p = Params(args.m, args.n, args.r)
    _check_limit("theta scan steps", _theta_steps(p.m, p.n, p.r), MAX_THETA_STEPS)
    result = _threshold_fields(p, args.family)
    _emit(_envelope("threshold", params, result), args.format)
    return EXIT_OK


def _node_limit_from_env() -> int:
    raw = os.environ.get(NODE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_BUDGET.node_limit
    try:
        value = int(raw)
    except ValueError:
        raise ParameterDomainError(
            f"{NODE_LIMIT_ENV} must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ParameterDomainError(f"{NODE_LIMIT_ENV} must be >= 1, got {value}")
    return value


# Per family: the closed-form verdict and the oracle that checks it.
_DECIDERS = {
    "kronecker": (cf.kronecker_verdict, oracle_kronecker_colorable),
    "multipartite": (cf.multipartite_verdict, oracle_multipartite_colorable),
}


def _cmd_decide(args: argparse.Namespace) -> int:
    params = {
        "m": args.m,
        "n": args.n,
        "r": args.r,
        "k": args.k,
        "family": args.family,
        "oracle": args.oracle,
    }
    p = Params(args.m, args.n, args.r)
    if args.family == "kronecker":  # K_{m(n)} is not symmetric in m and n
        p = p.canonical()
    verdict, oracle = _DECIDERS[args.family]
    colorable, reason = verdict(p, args.k)

    result: dict[str, Any] = {"colorable": colorable, "reason": reason, "oracle": None}
    mismatch = False
    if args.oracle:
        budget = replace(DEFAULT_BUDGET, node_limit=_node_limit_from_env())
        oracle_says = oracle(p, args.k, budget)
        result["oracle"] = {
            "colorable": oracle_says,
            "agrees": oracle_says == colorable,
        }
        mismatch = oracle_says != colorable
    _emit(_envelope("decide", params, result), args.format)
    if mismatch:
        print(
            f"internal invariant falsified: formula says {colorable}, "
            f"oracle says {not colorable} for m={args.m} n={args.n} "
            f"r={args.r} k={args.k} ({args.family})",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    return EXIT_OK


def _cmd_color(args: argparse.Namespace) -> int:
    params = {
        "m": args.m,
        "n": args.n,
        "r": args.r,
        "k": args.k,
        "out": args.out,
    }
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
    result: dict[str, Any] = {
        "m": coloring.m,
        "n": coloring.n,
        "k": coloring.k,
        "sizes": coloring.sizes(),
        "valid": True,
        "out": args.out,
        "coloring": None,
        "note": note,
    }
    if args.out is not None:
        write_coloring(args.out, coloring)
    else:
        result["coloring"] = format_coloring(coloring)
    _emit(_envelope("color", params, result), args.format)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    params = {"r": args.r, "file": args.file}
    try:
        coloring = read_coloring(args.file)
    except OSError as exc:
        raise ParameterDomainError(f"cannot read {args.file}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ColoringFileError(f"file is not ASCII: {exc}", 1) from exc
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
    _emit(_envelope("verify", params, result), args.format)
    return EXIT_OK


_RANGE = re.compile(r"^(\d+)(?:\.\.(\d+))?$")


def _parse_range(text: str, name: str) -> range:
    match = _RANGE.match(text)
    if match is None:
        raise ParameterDomainError(
            f"{name} range must look like '4' or '2..40', got {text!r}"
        )
    lo = int(match.group(1))
    hi = int(match.group(2)) if match.group(2) is not None else lo
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


_TABLE_COLUMNS = [
    "m", "n", "r", "kronecker", "case", "multipartite", "equal",
    "equ_bound", "equality_guaranteed",
]


def _cmd_table(args: argparse.Namespace) -> int:
    m_range = _parse_range(args.m, "m")
    n_range = _parse_range(args.n, "n")
    r_range = _parse_range(args.r, "r")
    count = math.prod(max(0, x.stop - x.start) for x in (m_range, n_range, r_range))
    _check_limit("rows", count, MAX_TABLE_ROWS)
    if count:
        steps = _theta_steps(m_range[-1], n_range[-1], r_range[-1])
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
                    print(
                        f"internal invariant falsified: m={m} n={n} r={r} "
                        f"has n >= {row['equ_bound']} but thresholds "
                        f"{row['kronecker']} != {row['multipartite']}",
                        file=sys.stderr,
                    )
                    return EXIT_INTERNAL
                rows.append(row)
    if args.format == "json":
        params = {"m": args.m, "n": args.n, "r": args.r}
        _emit(_envelope("table", params, {"rows": rows}), "json")
    else:
        print(",".join(_TABLE_COLUMNS))
        for row in rows:
            print(",".join(_csv_cell(row[c]) for c in _TABLE_COLUMNS))
    return EXIT_OK


def _csv_cell(value: Any) -> str:
    return "" if value is None else _render_value(value)


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
    try:
        return args.handler(args)
    except (ParameterDomainError, ColoringFileError, GridBoundsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"oracle budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NotColorableError as exc:
        print(f"not colorable: {exc}", file=sys.stderr)
        return EXIT_NOT_COLORABLE
    except InternalCheckError as exc:
        print(f"internal invariant falsified: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except EquicolorError as exc:  # safety net for future subclasses
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
