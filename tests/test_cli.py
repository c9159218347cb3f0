"""End-to-end tests for the command-line interface.

Commands run in-process through ``main(argv)``; stdout is parsed and,
for JSON output, validated against the published envelope schema.
"""

import hashlib
import json

import jsonschema
import pytest

from equicolor import cli
from equicolor.cli import (
    ENVELOPE_SCHEMA,
    EXIT_BUDGET,
    EXIT_NOT_COLORABLE,
    EXIT_OK,
    EXIT_USAGE,
    NODE_LIMIT_ENV,
    SCHEMA_VERSION,
    main,
)
from equicolor.files import parse_coloring
from equicolor.grid import verify


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


def test_color_inlines_coloring_without_out(capsys):
    env = run_json(["color", "-m", "2", "-n", "2", "-r", "1", "-k", "2"], capsys)
    assert env["result"]["out"] is None
    coloring = parse_coloring(env["result"]["coloring"])
    assert coloring.sizes() == [2, 2]
    assert verify(1, coloring).valid
    assert all(
        len({v.row for v in cls}) == 1 or len({v.col for v in cls}) == 1
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


# ------------------------------------------------------------
# input limits
# ------------------------------------------------------------


class _Reached(Exception):
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
    monkeypatch.setattr(cli, "color_kronecker", _reached)
    monkeypatch.setattr(cli, "_table_row", _reached)
    monkeypatch.setattr(cli, "_threshold_fields", _reached)
    monkeypatch.setattr(cli, "verify", _reached)
    path = tmp_path / "big.ec"
    path.write_text("equicolor v1\nm=100000 n=100000 k=1\n1:\n")
    argv = [str(path) if a == "{file}" else a for a in argv]
    captured = run(argv, capsys, expect=EXIT_USAGE)
    assert limit in captured.err


def test_input_limits_are_inclusive(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "color_kronecker", _reached)
    monkeypatch.setattr(cli, "_table_row", _reached)
    monkeypatch.setattr(cli, "_threshold_fields", _reached)
    monkeypatch.setattr(cli, "verify", _reached)
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
