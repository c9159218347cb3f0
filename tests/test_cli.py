"""End-to-end tests for the command-line interface.

Commands run in-process through ``main(argv)``; stdout is parsed and,
for JSON output, validated against the envelope schema below.
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any

import jsonschema
import pytest

from equicolor import cli
from equicolor import closed_forms as cf
from equicolor import construct, files, grid, oracle
from equicolor.cli import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_NOT_COLORABLE,
    EXIT_OK,
    EXIT_USAGE,
    NODE_LIMIT_ENV,
    SCHEMA_VERSION,
    main,
)
from equicolor.files import format_coloring, parse_coloring
from equicolor.grid import Coloring, verify

# One fixed schema covering every envelope the CLI emits at
# SCHEMA_VERSION.  Bump SCHEMA_VERSION on any breaking change.
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


def run(argv, capsys, expect=EXIT_OK):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect, captured.err
    return captured


def run_json(argv, capsys, expect=EXIT_OK):
    captured = run(argv + ["--format", "json"], capsys, expect)
    envelope = json.loads(captured.out)
    jsonschema.validate(envelope, ENVELOPE_SCHEMA)
    assert envelope["schema_version"] == SCHEMA_VERSION
    return envelope


# ------------------------------------------------------------
# threshold
# ------------------------------------------------------------


def test_threshold_kronecker_json(capsys):
    env = run_json(
        ["threshold", "--family", "kronecker", "-m", "3", "-n", "7", "-r", "2"],
        capsys,
    )
    result = env["result"]
    assert result["value"] == 5
    assert result["case"] == "residue-small-gap"
    assert result["theta"] is None
    assert result["gamma"] == 5
    assert result["trichotomy"] == "less"
    assert result["residue"] == 2


def test_threshold_multipartite_json(capsys):
    env = run_json(
        ["threshold", "--family", "multipartite", "-m", "2", "-n", "10", "-r", "2"],
        capsys,
    )
    assert env["result"]["value"] == 4
    assert env["result"]["theta"] == 5


def test_multipartite_theta_is_scanned_once_per_threshold(capsys, monkeypatch):
    calls = []
    real = cli.cf.theta_balanced

    def counted(n, r):
        calls.append((n, r))
        return real(n, r)

    monkeypatch.setattr(cli.cf, "theta_balanced", counted)
    env = run_json(
        ["threshold", "--family", "multipartite", "-m", "2", "-n", "10", "-r", "2"],
        capsys,
    )
    assert (env["result"]["value"], env["result"]["theta"]) == (4, 5)
    assert calls == [(10, 2)]
    calls.clear()
    # Each row thresholds both families; only the multipartite one scans
    # theta_balanced (the product's threshold scans theta_min).
    env = run_json(["table", "-m", "2..3", "-n", "4..6", "-r", "1..2"], capsys)
    assert len(env["result"]["rows"]) == 12 and len(calls) == 12


def test_threshold_edgeless_m1(capsys):
    env = run_json(
        ["threshold", "--family", "kronecker", "-m", "1", "-n", "9", "-r", "1"],
        capsys,
    )
    assert env["result"]["value"] == 1
    assert env["result"]["note"] == "edgeless"


def test_threshold_swaps_to_canonical_orientation(capsys):
    env = run_json(
        ["threshold", "--family", "kronecker", "-m", "7", "-n", "3", "-r", "2"],
        capsys,
    )
    assert env["result"]["value"] == 5
    assert env["result"]["note"] == "factors swapped to m <= n"


def test_threshold_text_format(capsys):
    captured = run(
        ["threshold", "--family", "kronecker", "-m", "3", "-n", "7", "-r", "2"],
        capsys,
    )
    lines = captured.out.splitlines()
    assert lines[0] == "command: threshold"
    assert "value: 5" in lines
    assert "case: residue-small-gap" in lines


def test_multipartite_threshold_estimate_walks_n_only(capsys):
    # K_{m(n)}'s theta scan walks n; an estimate over max(m, n) refused
    # this instance with 31606961 steps.
    env = run_json(["threshold", "--family", "multipartite", "-m", "1000000000000",
                    "-n", "5", "-r", "1000"], capsys)
    assert env["result"]["value"] == cf.threshold_multipartite(cf.Params(10**12, 5, 1000))


@pytest.mark.parametrize("family, m, n", [
    ("multipartite", 1, 10**20),
    ("kronecker", 10**20, 1),
    ("kronecker", 1, 10**20),
])
def test_edgeless_threshold_runs_no_scan_and_meets_no_scan_limit(family, m, n, capsys):
    # m = 1 (after the swap to m <= n for K_m x K_n) is edgeless: the
    # answer is 1 with no theta scan, so the scan limit does not apply.
    env = run_json(["threshold", "--family", family, "-m", str(m), "-n", str(n),
                    "-r", "3"], capsys)
    assert env["result"]["value"] == 1
    assert env["result"]["note"] == "edgeless"


@pytest.mark.parametrize("m, n, multipartite", [(1, 10**20, 1), (10**20, 1, 10**20)])
def test_table_rows_that_scan_nothing_meet_no_scan_limit(m, n, multipartite, capsys):
    # The Kronecker row is edgeless both ways round; K_{m(n)} with n = 1
    # scans over n = 1 only.
    env = run_json(["table", "-m", str(m), "-n", str(n), "-r", "3"], capsys)
    (row,) = env["result"]["rows"]
    assert (row["kronecker"], row["case"]) == (1, "edgeless")
    assert row["multipartite"] == multipartite


def test_threshold_rejects_bad_parameters(capsys):
    run(
        ["threshold", "--family", "kronecker", "-m", "0", "-n", "3", "-r", "1"],
        capsys,
        expect=EXIT_USAGE,
    )


# ------------------------------------------------------------
# decide
# ------------------------------------------------------------


def test_decide_false_with_reason(capsys):
    env = run_json(["decide", "-m", "3", "-n", "7", "-r", "2", "-k", "4"], capsys)
    assert env["result"]["colorable"] is False
    assert env["result"]["reason"] == "multipartite-condition-failed"
    assert env["result"]["oracle"] is None


def test_decide_true(capsys):
    env = run_json(["decide", "-m", "3", "-n", "7", "-r", "2", "-k", "3"], capsys)
    assert env["result"]["colorable"] is True
    assert env["result"]["reason"] == "multipartite-condition"


def test_decide_with_oracle_concurrence(capsys):
    env = run_json(
        ["decide", "-m", "3", "-n", "7", "-r", "2", "-k", "4", "--oracle"],
        capsys,
    )
    assert env["result"]["colorable"] is False
    assert env["result"]["oracle"] == {"colorable": False, "agrees": True}


def test_decide_multipartite_oracle_at_a_thousand_parts(capsys):
    # k = 1,000 is the default max_k; the oracle's count enumeration once
    # recursed per part, and this call died with a RecursionError.
    env = run_json(
        ["decide", "-m", "1000", "-n", "2", "-r", "1", "-k", "1000",
         "--family", "multipartite", "--oracle"],
        capsys,
    )
    assert env["result"]["colorable"] is True
    assert env["result"]["oracle"] == {"colorable": True, "agrees": True}


def test_decide_multipartite_family_is_not_canonicalized(capsys):
    # K_{7(3)}: 7 parts of size 3; k = 7 means one class per part.
    env = run_json(
        ["decide", "--family", "multipartite", "-m", "7", "-n", "3", "-r", "1",
         "-k", "7"],
        capsys,
    )
    assert env["result"]["colorable"] is True
    env = run_json(
        ["decide", "--family", "multipartite", "-m", "7", "-n", "3", "-r", "1",
         "-k", "6"],
        capsys,
    )
    assert env["result"]["colorable"] is False
    assert env["result"]["reason"] == "below-chromatic"


def test_decide_edgeless(capsys):
    env = run_json(["decide", "-m", "1", "-n", "5", "-r", "1", "-k", "1"], capsys)
    assert env["result"]["colorable"] is True
    assert env["result"]["reason"] == "edgeless"


def test_decide_oracle_node_limit_env(capsys, monkeypatch):
    monkeypatch.setenv(NODE_LIMIT_ENV, "1")
    captured = run(
        ["decide", "-m", "3", "-n", "7", "-r", "2", "-k", "4", "--oracle"],
        capsys,
        expect=EXIT_BUDGET,
    )
    assert "budget" in captured.err


def test_decide_oracle_node_limit_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv(NODE_LIMIT_ENV, "a-lot")
    run(
        ["decide", "-m", "2", "-n", "2", "-r", "1", "-k", "2", "--oracle"],
        capsys,
        expect=EXIT_USAGE,
    )


def test_decide_oracle_node_limit_env_must_be_positive(capsys, monkeypatch):
    monkeypatch.setenv(NODE_LIMIT_ENV, "0")
    captured = run(
        ["decide", "-m", "2", "-n", "2", "-r", "1", "-k", "2", "--oracle"],
        capsys,
        expect=EXIT_USAGE,
    )
    assert captured.err == f"error: {NODE_LIMIT_ENV} must be >= 1, got 0\n"


def test_decide_rejects_k_zero(capsys):
    run(
        ["decide", "-m", "2", "-n", "2", "-r", "1", "-k", "0"],
        capsys,
        expect=EXIT_USAGE,
    )


# ------------------------------------------------------------
# color
# ------------------------------------------------------------


def test_color_writes_file_that_verifies(capsys, tmp_path):
    out = tmp_path / "w.ec"
    env = run_json(
        ["color", "-m", "2", "-n", "10", "-r", "2", "-k", "6", "--out", str(out)],
        capsys,
    )
    assert env["result"]["sizes"] == [2, 2, 4, 4, 4, 4]
    assert env["result"]["valid"] is True
    assert env["result"]["coloring"] is None

    env = run_json(["verify", "-r", "2", str(out)], capsys)
    assert env["result"]["valid"] is True
    assert env["result"]["violations"] == []


@pytest.mark.parametrize("target", ["missing/x.eqc", "."])
def test_color_out_unwritable_exits_2_with_no_output(capsys, tmp_path, target):
    # A missing parent directory, then a path that is a directory.
    path = tmp_path / target
    captured = run(
        ["color", "-m", "2", "-n", "3", "-r", "1", "-k", "3", "--out", str(path)],
        capsys,
        expect=EXIT_USAGE,
    )
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.err.count("\n") == 1


def test_color_inlines_coloring_without_out(capsys):
    env = run_json(["color", "-m", "2", "-n", "2", "-r", "1", "-k", "2"], capsys)
    assert env["result"]["out"] is None
    coloring = parse_coloring(env["result"]["coloring"])
    assert coloring.sizes() == [2, 2]
    assert verify(1, coloring).valid
    assert all(
        len({v[0] for v in cls}) == 1 or len({v[1] for v in cls}) == 1
        for cls in coloring.classes
    )


def test_color_refuses_uncolorable_instance(capsys):
    captured = run(
        ["color", "-m", "3", "-n", "7", "-r", "2", "-k", "4"],
        capsys,
        expect=EXIT_NOT_COLORABLE,
    )
    assert "multipartite-condition-failed" in captured.err


def test_color_swaps_to_canonical_orientation(capsys):
    env = run_json(["color", "-m", "10", "-n", "2", "-r", "2", "-k", "6"], capsys)
    assert env["result"]["m"] == 2
    assert env["result"]["n"] == 10
    assert env["result"]["note"] == "factors swapped to m <= n"


def test_color_edgeless_grid(capsys):
    env = run_json(["color", "-m", "1", "-n", "5", "-r", "1", "-k", "3"], capsys)
    coloring = parse_coloring(env["result"]["coloring"])
    assert coloring.sizes() == [2, 2, 1]
    assert verify(1, coloring).valid


# ------------------------------------------------------------
# verify
# ------------------------------------------------------------


def test_verify_reports_violations_with_exit_zero(capsys, tmp_path):
    path = tmp_path / "diag.ec"
    path.write_text(
        "equicolor v1\nm=2 n=2 k=2\n1: (1,1) (2,2)\n2: (1,2) (2,1)\n",
        encoding="ascii",
    )
    env = run_json(["verify", "-r", "1", str(path)], capsys)
    assert env["result"]["valid"] is False
    kinds = {v["kind"] for v in env["result"]["violations"]}
    assert kinds == {"adjacent-pair"}


def test_verify_text_format_lists_violations(capsys, tmp_path):
    path = tmp_path / "diag.ec"
    path.write_text(
        "equicolor v1\nm=2 n=2 k=2\n1: (1,1) (2,2)\n2: (1,2) (2,1)\n",
        encoding="ascii",
    )
    captured = run(["verify", "-r", "1", str(path)], capsys)
    assert "valid: false" in captured.out
    assert "violations: 2" in captured.out
    assert "adjacent-pair" in captured.out


def test_verify_malformed_file_exits_2_with_line_number(capsys, tmp_path):
    path = tmp_path / "broken.ec"
    path.write_text("not a coloring\n", encoding="ascii")
    captured = run(["verify", "-r", "1", str(path)], capsys, expect=EXIT_USAGE)
    assert "line 1" in captured.err


def test_verify_rejects_crlf_line_endings(capsys, tmp_path):
    # Read with no newline translation, so CRLF fails at line 1.
    path = tmp_path / "crlf.ec"
    path.write_bytes(b"equicolor v1\r\nm=1 n=2 k=1\r\n1: (1,1) (1,2)\r\n")
    captured = run(["verify", "-r", "1", str(path)], capsys, expect=EXIT_USAGE)
    assert "line 1: expected header" in captured.err


def test_verify_reports_a_non_ascii_byte_at_its_line(capsys, tmp_path):
    path = tmp_path / "latin.ec"
    path.write_bytes(b"equicolor v1\nm=1 n=2 k=1\n1: (1,1) (1,\xd9\xa2)\n")
    captured = run(["verify", "-r", "1", str(path)], capsys, expect=EXIT_USAGE)
    assert captured.err.startswith("error: line 3: file is not ASCII: ")


def test_verify_numbers_beyond_int_digit_limit_exit_2(capsys, tmp_path):
    huge = "9" * 5000  # int() reads at most 4300 digits
    path = tmp_path / "huge.ec"
    for text, line in ((f"equicolor v1\nm={huge} n=2 k=1\n1:\n", 2),
                       (f"equicolor v1\nm=2 n=2 k=1\n1: (1,{huge})\n", 3)):
        path.write_text(text, encoding="ascii")
        captured = run(["verify", "-r", "1", str(path)], capsys, expect=EXIT_USAGE)
        assert f"line {line}: number of 5000 digits is too long" in captured.err


def test_verify_missing_file_exits_2(capsys, tmp_path):
    run(
        ["verify", "-r", "1", str(tmp_path / "absent.ec")],
        capsys,
        expect=EXIT_USAGE,
    )


# ------------------------------------------------------------
# table
# ------------------------------------------------------------


def test_table_single_row_csv(capsys):
    captured = run(["table", "-m", "4", "-n", "7", "-r", "1"], capsys)
    header, row = captured.out.splitlines()
    assert header == (
        "m,n,r,kronecker,case,multipartite,equal,equ_bound,equality_guaranteed"
    )
    cells = row.split(",")
    assert cells[:7] == ["4", "7", "1", "6", "residue-small-gap", "16", "false"]
    assert cells[7] == ""  # no equality bound for r = 1
    assert cells[8] == "false"


def test_table_equality_guarantee_holds_in_sweep(capsys):
    captured = run(["table", "-m", "2..4", "-n", "2..40", "-r", "2"], capsys)
    lines = captured.out.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3 * 39
    guaranteed = [r for r in rows if r[8] == "true"]
    assert guaranteed, "sweep should reach the equality bound"
    assert all(r[6] == "true" for r in guaranteed)
    # Spot value: m=2, r=2 guarantees equality from n=20 on.
    for r in rows:
        if r[0] == "2":
            assert r[7] == "20"
            assert r[8] == ("true" if int(r[1]) >= 20 else "false")


def test_table_json_envelope(capsys):
    env = run_json(["table", "-m", "4", "-n", "7", "-r", "1"], capsys)
    rows = env["result"]["rows"]
    assert len(rows) == 1
    assert rows[0]["kronecker"] == 6
    assert rows[0]["multipartite"] == 16
    assert rows[0]["equal"] is False
    assert rows[0]["equ_bound"] is None


def test_table_edgeless_rows(capsys):
    env = run_json(["table", "-m", "1", "-n", "4", "-r", "1"], capsys)
    row = env["result"]["rows"][0]
    assert row["kronecker"] == 1
    assert row["case"] == "edgeless"
    assert row["multipartite"] == 1


def test_table_empty_range_is_empty_table(capsys):
    captured = run(["table", "-m", "5..4", "-n", "3", "-r", "1"], capsys)
    assert captured.out.splitlines()[1:] == []


def test_table_rejects_bad_ranges(capsys):
    run(["table", "-m", "x", "-n", "3", "-r", "1"], capsys, expect=EXIT_USAGE)
    run(["table", "-m", "0..3", "-n", "3", "-r", "1"], capsys, expect=EXIT_USAGE)


def test_table_rejects_a_range_with_a_trailing_newline(capsys):
    captured = run(["table", "-m", "2..3\n", "-n", "5", "-r", "1", "--format", "json"],
                   capsys, expect=EXIT_USAGE)
    assert captured.out == ""
    assert "m range must look like '4' or '2..40', got '2..3\\n'" in captured.err


def test_table_rejects_range_bounds_beyond_int_digit_limit(capsys):
    huge = "9" * 5000  # int() reads at most 4300 digits
    for bounds in (f"1..{huge}", huge):
        captured = run(["table", "-m", bounds, "-n", "2", "-r", "1"], capsys,
                       expect=EXIT_USAGE)
        assert "m range bound has too many digits" in captured.err


# ------------------------------------------------------------
# internal invariants (exit 5)
# ------------------------------------------------------------


def test_decide_oracle_disagreement_prints_envelope_then_exits_5(monkeypatch):
    def contrary(p, k, budget):
        return not cf.kronecker_colorable(p, k)

    monkeypatch.setattr(oracle, "oracle_kronecker_colorable", contrary)
    both = io.StringIO()  # one buffer, so the order of the streams shows
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        code = main(["decide", "-m", "3", "-n", "7", "-r", "2", "-k", "4",
                     "--oracle", "--format", "json"])
    assert code == EXIT_INTERNAL
    line = ("internal invariant falsified: formula says False, oracle says "
            "True for m=3 n=7 r=2 k=4 (kronecker)\n")
    text = both.getvalue()
    assert text.endswith(line)
    envelope = json.loads(text[: -len(line)])
    jsonschema.validate(envelope, ENVELOPE_SCHEMA)
    assert envelope["result"]["oracle"] == {"colorable": True, "agrees": False}


def test_any_other_exception_in_a_command_exits_5_with_no_output(capsys, monkeypatch):
    # Not a library error, so Python would exit 1 with a traceback.
    def broken(p, k, budget):
        raise ValueError("boom")

    monkeypatch.setattr(oracle, "oracle_kronecker_colorable", broken)
    captured = run(["decide", "-m", "3", "-n", "7", "-r", "2", "-k", "4", "--oracle"],
                   capsys, expect=EXIT_INTERNAL)
    assert captured.out == ""
    assert captured.err == "internal invariant falsified: ValueError: boom\n"


def test_an_error_writing_the_envelope_is_not_mapped(monkeypatch):
    # A closed pipe under `| head` is the reader's doing, not a fault.
    def closed(envelope, fmt):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "_emit", closed)
    with pytest.raises(BrokenPipeError):
        main(["threshold", "--family", "kronecker", "-m", "3", "-n", "7", "-r", "2"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_equality_contradiction_exits_5_with_no_output(fmt, capsys, monkeypatch):
    real = cli._table_row

    def contradicted(m, n, r):
        row = real(m, n, r)
        if row["equality_guaranteed"]:
            row["equal"] = False
        return row

    monkeypatch.setattr(cli, "_table_row", contradicted)
    captured = run(["table", "-m", "2", "-n", "19..21", "-r", "2", "--format", fmt],
                   capsys, expect=EXIT_INTERNAL)
    assert captured.out == ""
    assert captured.err == ("internal invariant falsified: m=2 n=20 r=2 has "
                            "n >= 20 but thresholds 6 != 6\n")


def test_color_self_check_failure_exits_5_with_no_output(capsys, monkeypatch):
    real = construct.color_kronecker

    def corrupted(p, k):
        good = real(p, k)
        first, second, *rest = good.classes
        moved = (first[1:], second + first[:1], *rest)
        return Coloring(good.m, good.n, moved)

    monkeypatch.setattr(construct, "color_kronecker", corrupted)
    bad = corrupted(cf.Params(2, 10, 2), 6)
    details = "; ".join(v.detail for v in verify(2, bad).violations)
    assert details
    captured = run(["color", "-m", "2", "-n", "10", "-r", "2", "-k", "6"], capsys,
                   expect=EXIT_INTERNAL)
    assert captured.out == ""
    assert captured.err == ("internal invariant falsified: constructed coloring "
                            f"failed verification: {details}\n")


def test_color_witness_off_the_grid_exits_5_with_no_output(capsys, monkeypatch):
    # The self-check's verify raises GridBoundsError on it: a fault of the
    # constructor, not of the user's input.
    def stray(p, k):
        return Coloring(3, 4, (((4, 1),), *[()] * (k - 1)))

    monkeypatch.setattr(construct, "color_kronecker", stray)
    captured = run(["color", "-m", "3", "-n", "4", "-r", "1", "-k", "4"], capsys,
                   expect=EXIT_INTERNAL)
    assert captured.out == ""
    assert captured.err == ("internal invariant falsified: vertex (4,1) "
                            "outside the 3x4 grid\n")


def test_color_infeasible_window_in_the_realizer_exits_5_with_no_output(
    capsys, monkeypatch
):
    # A scatter plan (n < k <= m*n) with more column classes than columns.
    monkeypatch.setattr(construct, "_scatter_layout", lambda p, k: (1, 5, p.n + 1))
    captured = run(["color", "-m", "3", "-n", "4", "-r", "1", "-k", "6"], capsys,
                   expect=EXIT_INTERNAL)
    assert captured.out == ""
    assert captured.err == ("internal invariant falsified: plan b=1 C=5 G=5 out of "
                            "range for Params(m=3, n=4, r=1), k=6\n")


# ------------------------------------------------------------
# input limits
# ------------------------------------------------------------


class _Reached(BaseException):  # not an Exception, so main does not map it
    pass


def _reached(*args):
    raise _Reached


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["color", "-m", "100000", "-n", "100000", "-r", "1", "-k", "5"],
         "m*n <= 1000000"),
        (["color", "-m", "2", "-n", "2", "-r", "1", "-k", "10000000000"],
         "k <= 1000000"),
        (["table", "-m", "1", "-n", "1..1000000000", "-r", "1"], "rows <= 100000"),
        (["verify", "-r", "1", "{file}"], "m*n <= 1000000"),
        (["threshold", "--family", "multipartite", "-m", "2",
          "-n", "1000000000000", "-r", "1000000000000"],
         "theta scan steps <= 10000000"),
        (["table", "-m", "2", "-n", "1..100000", "-r", "1000000"],
         "rows * theta scan steps <= 10000000"),
    ],
)
def test_unbounded_inputs_are_refused_before_any_work(argv, limit, capsys,
                                                     monkeypatch, tmp_path):
    # The work itself is replaced, so a missing guard fails fast instead
    # of allocating or scanning.
    monkeypatch.setattr(construct, "color_kronecker", _reached)
    monkeypatch.setattr(cli, "_table_row", _reached)
    monkeypatch.setattr(cli, "_threshold_fields", _reached)
    monkeypatch.setattr(grid, "verify", _reached)
    path = tmp_path / "big.ec"
    path.write_text("equicolor v1\nm=100000 n=100000 k=1\n1:\n")
    argv = [str(path) if a == "{file}" else a for a in argv]
    captured = run(argv, capsys, expect=EXIT_USAGE)
    assert limit in captured.err


def test_input_limits_are_inclusive(monkeypatch, tmp_path):
    monkeypatch.setattr(construct, "color_kronecker", _reached)
    monkeypatch.setattr(cli, "_table_row", _reached)
    monkeypatch.setattr(cli, "_threshold_fields", _reached)
    monkeypatch.setattr(grid, "verify", _reached)
    with pytest.raises(_Reached):
        main(["color", "-m", "1000", "-n", "1000", "-r", "1",
              "-k", str(cli.MAX_COLOR_K)])
    with pytest.raises(_Reached):
        main(["table", "-m", "1..10", "-n", "1..10000", "-r", "1"])
    # isqrt(10**12 * 100) is exactly MAX_THETA_STEPS.
    with pytest.raises(_Reached):
        main(["threshold", "--family", "kronecker", "-m", "2",
              "-n", "1000000000000", "-r", "101"])
    path = tmp_path / "at_limit.ec"
    path.write_text("equicolor v1\nm=1000 n=1000 k=1\n1:\n")
    with pytest.raises(_Reached):
        main(["verify", "-r", "1", str(path)])


def _color_file_bytes(m, n, k):
    """The size of any file `color` writes for (m, n, k): it holds every
    cell once, so the size does not depend on the classes."""

    def digits(x):  # total digits of 1..x
        return sum((min(x, 10 * lo - 1) - lo + 1) * d
                   for d, lo in enumerate((10**e for e in range(8)), 1) if lo <= x)

    return (len(f"equicolor v1\nm={m} n={n} k={k}\n") + digits(k) + 2 * k
            + 4 * m * n + n * digits(m) + m * digits(n))


def test_verify_byte_limit_is_the_largest_color_file(tmp_path):
    for m, n, r, k in [(1, 1, 1, 1), (2, 3, 1, 4), (3, 12, 2, 40), (4, 11, 1, 46)]:
        path = tmp_path / "small.ec"
        assert main(["color", "-m", str(m), "-n", str(n), "-r", str(r), "-k", str(k),
                     "--out", str(path)]) == EXIT_OK
        assert path.stat().st_size == _color_file_bytes(m, n, k)
    # The size grows with n at fixed m and is symmetric in m and n, so it
    # is largest at n = cells // m for some m <= n, that is m <= 1000.
    cells, k = cli.MAX_COLOR_CELLS, cli.MAX_COLOR_K
    largest = max(_color_file_bytes(m, cells // m, k) for m in range(1, 1001))
    assert largest == _color_file_bytes(1, cells, k) == cli.MAX_VERIFY_BYTES


def test_verify_refuses_files_over_the_byte_limit(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(files, "parse_coloring", _reached)
    path = tmp_path / "big.ec"
    with path.open("wb") as sparse:
        sparse.truncate(cli.MAX_VERIFY_BYTES + 1)
    captured = run(["verify", "-r", "1", str(path)], capsys, expect=EXIT_USAGE)
    assert f"file bytes <= {cli.MAX_VERIFY_BYTES}, got {cli.MAX_VERIFY_BYTES + 1}" in captured.err
    with path.open("r+b") as sparse:
        sparse.truncate(cli.MAX_VERIFY_BYTES)
    with pytest.raises(_Reached):
        main(["verify", "-r", "1", str(path)])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_verify_refuses_a_pipe_over_the_byte_limit(capsys, monkeypatch, tmp_path):
    # A pipe reports 0 bytes to stat, so only a capped read bounds it.
    monkeypatch.setattr(files, "parse_coloring", _reached)
    fifo = tmp_path / "pipe.ec"
    os.mkfifo(fifo)

    def feed():
        try:
            with fifo.open("wb") as sink:
                sink.write(b"x" * (cli.MAX_VERIFY_BYTES + 1))
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    captured = run(["verify", "-r", "1", str(fifo)], capsys, expect=EXIT_USAGE)
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert f"file bytes <= {cli.MAX_VERIFY_BYTES}, got {cli.MAX_VERIFY_BYTES + 1}" in captured.err


# ------------------------------------------------------------
# frozen surface
# ------------------------------------------------------------

# sha256 over every (argv, exit code, stdout, stderr) of the matrix below.
# Any change to a verdict, reason tag, exit code, envelope or witness byte
# moves it.
CLI_SURFACE_DIGEST = "cd06744544d326f4cc8637086bbb2ba8c1c720547f90ddad191c33e4b17fcf42"


def _surface_argvs():
    for m in range(1, 6):
        for n in range(1, 6):
            for r in (1, 2):
                mnr = ["-m", str(m), "-n", str(n), "-r", str(r)]
                ks = [str(k) for k in range(0, m * n + 3)]
                oracle = ["--oracle"] if m * n <= 12 else []
                for fmt in ("json", "text"):
                    tail = ["--format", fmt]
                    for family in ("kronecker", "multipartite"):
                        yield ["threshold", "--family", family, *mnr, *tail]
                        for k in ks:
                            yield ["decide", "--family", family, *mnr, "-k", k,
                                   *oracle, *tail]
                    for k in ks:
                        yield ["color", *mnr, "-k", k, *tail]
    for fmt in ("csv", "json"):
        yield ["table", "-m", "1..3", "-n", "1..5", "-r", "1..2", "--format", fmt]


def test_cli_surface_is_frozen(capsys, monkeypatch):
    monkeypatch.delenv(NODE_LIMIT_ENV, raising=False)
    # Building the argparse tree costs more than most commands; one
    # parser serves every call.
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    digest = hashlib.sha256()
    for argv in _surface_argvs():
        code = main(argv)
        captured = capsys.readouterr()
        digest.update(json.dumps([argv, code, captured.out, captured.err]).encode())
    assert digest.hexdigest() == CLI_SURFACE_DIGEST


# ------------------------------------------------------------
# argument plumbing
# ------------------------------------------------------------


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_argument_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "-m", "2", "-n", "3", "-r", "1"])  # no --family
    assert exc.value.code == 2


# ------------------------------------------------------------
# start-up
# ------------------------------------------------------------

# Run in a fresh interpreter: the package modules in sys.modules after
# `import equicolor.cli` and, when argv is given, one command; then which
# of the costly stdlib modules below that import and command loaded.
_COSTLY = ("dataclasses", "inspect")
_LOADED = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import contextlib, io\n"
    "from equicolor import cli\n"
    "if sys.argv[1:]:\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        assert cli.main(sys.argv[1:]) == 0\n"
    "print(' '.join(sorted(m for m in sys.modules if m.startswith('equicolor'))))\n"
    f"print(' '.join(sorted(set({_COSTLY!r}) & (set(sys.modules) - before))))\n"
)
_CLOSED_FORMS_ONLY = ["equicolor", "equicolor.cli", "equicolor.closed_forms", "equicolor.errors"]


@pytest.mark.parametrize(
    "argv, extra",
    [
        ([], []),
        (["threshold", "--family", "kronecker", "-m", "3", "-n", "7", "-r", "2"], []),
        (["threshold", "--family", "multipartite", "-m", "3", "-n", "7", "-r", "2"], []),
        (["decide", "-m", "3", "-n", "7", "-r", "2", "-k", "5"], []),
        (["table", "-m", "2..3", "-n", "5..6", "-r", "1..2"], []),
        (["decide", "-m", "2", "-n", "3", "-r", "1", "-k", "3", "--oracle"],
         ["equicolor.oracle"]),
        (["color", "-m", "3", "-n", "7", "-r", "2", "-k", "5"],
         ["equicolor.construct", "equicolor.files", "equicolor.grid"]),
        (["color", "-m", "3", "-n", "7", "-r", "2", "-k", "5", "--out", "{file}"],
         ["equicolor.construct", "equicolor.files", "equicolor.grid"]),
        (["verify", "-r", "2", "{file}"], ["equicolor.files", "equicolor.grid"]),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, extra, tmp_path):
    path = tmp_path / "witness.ec"
    path.write_bytes(format_coloring(construct.color_kronecker(cf.Params(3, 7, 2), 5)).encode())
    argv = [str(path) if a == "{file}" else a for a in argv]
    src = str(Path(cli.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    package, costly = run.stdout.split("\n")[:2]
    assert package.split() == sorted(_CLOSED_FORMS_ONLY + extra)
    assert costly == ""


def test_no_module_imports_dataclasses():
    # Its import pulls in inspect, ast, dis and tokenize: about 9 ms of
    # every CLI call.  The records derive from errors._Record instead.
    sources = sorted(Path(cli.__file__).resolve().parent.glob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in [alias.name for alias in node.names], path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
