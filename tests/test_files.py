"""Unit tests for the equicolor v1 coloring file format."""

import gc
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicolor import files
from equicolor.closed_forms import Params
from equicolor.construct import color_kronecker
from equicolor.errors import ColoringFileError, NotColorableError
from equicolor.files import HEADER, decode_ascii, format_coloring, parse_coloring
from equicolor.grid import Coloring

GOLDEN = "equicolor v1\nm=2 n=2 k=2\n1: (1,1) (1,2)\n2: (2,1) (2,2)\n"

# ------------------------------------------------------------
# reference: the line-by-line regex parser
# ------------------------------------------------------------

_SIZE_LINE = re.compile(r"^m=(\d+) n=(\d+) k=(\d+)$")
_CLASS_LINE = re.compile(r"^(\d+):((?: \(\d+,\d+\))*)$")
_VERTEX = re.compile(r"\((\d+),(\d+)\)")


def reference_int(digits, line_no):
    """``int(digits)``; a number of more digits than int() reads is a
    file error on its line."""
    try:
        return int(digits)
    except ValueError:
        raise ColoringFileError(
            f"number of {len(digits)} digits is too long", line_no
        ) from None


def reference_parse_coloring(text):
    """Parse one line at a time, one regex match per line and per vertex."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # the canonical trailing LF
    if not lines or lines[0] != HEADER:
        raise ColoringFileError(f"expected header {HEADER!r}", 1)
    if len(lines) < 2:
        raise ColoringFileError("missing size line 'm=<m> n=<n> k=<k>'", 2)
    size_match = _SIZE_LINE.match(lines[1])
    if size_match is None:
        raise ColoringFileError(
            f"malformed size line {lines[1]!r}; expected 'm=<m> n=<n> k=<k>'", 2
        )
    m, n, k = (reference_int(g, 2) for g in size_match.groups())
    if m < 1 or n < 1 or k < 1:
        raise ColoringFileError(f"m, n, k must all be >= 1, got m={m} n={n} k={k}", 2)
    if len(lines) != 2 + k:
        raise ColoringFileError(
            f"expected exactly {k} class lines for k={k}, found {len(lines) - 2}",
            min(len(lines), 2 + k) + 1,
        )
    classes = []
    for pos in range(k):
        line_no = 3 + pos
        line = lines[2 + pos]
        class_match = _CLASS_LINE.match(line)
        if class_match is None:
            raise ColoringFileError(
                f"malformed class line {line!r}; expected "
                f"'<class-index>: (i,j) (i,j) ...'",
                line_no,
            )
        index = reference_int(class_match.group(1), line_no)
        if index != pos + 1:
            raise ColoringFileError(
                f"class index {index} out of order; expected {pos + 1}", line_no
            )
        cells = []
        for vm in _VERTEX.finditer(class_match.group(2)):
            i = reference_int(vm.group(1), line_no)
            j = reference_int(vm.group(2), line_no)
            if not (1 <= i <= m and 1 <= j <= n):
                raise ColoringFileError(
                    f"vertex ({i},{j}) outside the {m}x{n} grid", line_no
                )
            cells.append((i, j))
        classes.append(tuple(cells))
    return Coloring(m, n, tuple(classes))


def outcome(parse, text):
    """The parsed coloring, or the error's type, message and line."""
    try:
        return parse(text)
    except ColoringFileError as exc:
        return type(exc), str(exc), exc.line


def assert_parses_like_reference(text):
    got = outcome(parse_coloring, text)
    assert got == outcome(reference_parse_coloring, text)
    if isinstance(got, Coloring):
        assert all(type(cell) is tuple for cls in got.classes for cell in cls)


def kronecker_witnesses(top, rs=(1, 2, 3)):
    """Every color_kronecker witness text with 1 <= m <= n <= top."""
    for m in range(1, top + 1):
        for n in range(m, top + 1):
            for r in rs:
                for k in range(1, m * n + 3):
                    try:
                        yield format_coloring(color_kronecker(Params(m, n, r), k))
                    except NotColorableError:
                        pass


def two_rows():
    return Coloring(
        2,
        2,
        (
            ((1, 1), (1, 2)),
            ((2, 1), (2, 2)),
        ),
    )


# ------------------------------------------------------------
# formatting
# ------------------------------------------------------------


def test_format_golden_bytes():
    assert format_coloring(two_rows()) == GOLDEN


def test_format_sorts_cells_row_major():
    scrambled = Coloring(
        2,
        2,
        (
            ((1, 2), (1, 1)),
            ((2, 2), (2, 1)),
        ),
    )
    assert format_coloring(scrambled) == GOLDEN


def test_format_empty_class_is_bare_index():
    c = Coloring(1, 2, (((1, 1), (1, 2)), ()))
    assert format_coloring(c) == "equicolor v1\nm=1 n=2 k=2\n1: (1,1) (1,2)\n2:\n"


# ------------------------------------------------------------
# parsing
# ------------------------------------------------------------


def test_parse_round_trip():
    parsed = parse_coloring(GOLDEN)
    assert parsed == two_rows()
    assert format_coloring(parsed) == GOLDEN


def test_parse_accepts_missing_final_newline():
    assert parse_coloring(GOLDEN.rstrip("\n")) == two_rows()


def test_parse_round_trips_empty_classes():
    text = "equicolor v1\nm=1 n=2 k=3\n1: (1,1)\n2:\n3: (1,2)\n"
    parsed = parse_coloring(text)
    assert parsed.sizes() == [1, 0, 1]
    assert format_coloring(parsed) == text


def test_parse_rejects_wrong_header():
    with pytest.raises(ColoringFileError) as exc:
        parse_coloring("equicolor v2\nm=1 n=1 k=1\n1: (1,1)\n")
    assert exc.value.line == 1
    assert HEADER in str(exc.value)


def test_parse_rejects_missing_size_line():
    with pytest.raises(ColoringFileError) as exc:
        parse_coloring("equicolor v1\n")
    assert exc.value.line == 2


def test_parse_rejects_malformed_size_line():
    with pytest.raises(ColoringFileError) as exc:
        parse_coloring("equicolor v1\nm=2 n=2\n")
    assert exc.value.line == 2
    with pytest.raises(ColoringFileError) as exc:
        parse_coloring("equicolor v1\nm=0 n=2 k=1\n1:\n")
    assert exc.value.line == 2


def test_parse_rejects_wrong_class_count():
    # Too few class lines: the error points just past the last line.
    with pytest.raises(ColoringFileError) as exc:
        parse_coloring("equicolor v1\nm=2 n=2 k=3\n1: (1,1)\n2: (1,2)\n")
    assert exc.value.line == 5
    # Too many: the error points at the first surplus line.
    with pytest.raises(ColoringFileError) as exc:
        parse_coloring(GOLDEN + "3:\n")
    assert exc.value.line == 5
    # None at all, with and without the final LF.
    for text in ("equicolor v1\nm=1 n=1 k=1\n", "equicolor v1\nm=1 n=1 k=1"):
        with pytest.raises(ColoringFileError) as exc:
            parse_coloring(text)
        assert exc.value.line == 3
        assert_parses_like_reference(text)


def test_parse_rejects_malformed_class_line():
    bad = "equicolor v1\nm=2 n=2 k=2\n1: (1,1) (1,2)\n2: (2,1)(2,2)\n"
    with pytest.raises(ColoringFileError) as exc:
        parse_coloring(bad)
    assert exc.value.line == 4
    assert "line 4" in str(exc.value)


def test_parse_rejects_crlf_line_endings():
    with pytest.raises(ColoringFileError):
        parse_coloring(GOLDEN.replace("\n", "\r\n"))


def test_parse_rejects_out_of_order_class_index():
    bad = "equicolor v1\nm=2 n=2 k=2\n2: (1,1) (1,2)\n1: (2,1) (2,2)\n"
    with pytest.raises(ColoringFileError) as exc:
        parse_coloring(bad)
    assert exc.value.line == 3


def test_parse_rejects_out_of_grid_vertex():
    bad = "equicolor v1\nm=2 n=2 k=2\n1: (1,1) (1,2)\n2: (2,1) (3,2)\n"
    with pytest.raises(ColoringFileError) as exc:
        parse_coloring(bad)
    assert exc.value.line == 4
    assert "(3,2)" in str(exc.value)


def test_parse_does_not_judge_semantics():
    # A coloring that is not a partition still parses; judging belongs to
    # the verifier.
    text = "equicolor v1\nm=2 n=2 k=2\n1: (1,1) (1,1)\n2: (2,2)\n"
    parsed = parse_coloring(text)
    assert parsed.sizes() == [2, 1]


def test_parsed_cells_are_exact_tuples():
    parsed = parse_coloring(GOLDEN)
    cell = parsed.classes[1][0]
    assert type(cell) is tuple and cell == (2, 1)
    assert type(cell[0]) is int and type(cell[1]) is int


def test_parsed_cells_are_not_tracked_by_the_garbage_collector():
    # Exact tuples of ints leave the collector's lists on its first pass;
    # cells that stayed tracked made a third of the parse time collection.
    text = format_coloring(color_kronecker(Params(12, 15, 1), 40))
    parsed = parse_coloring(text)
    gc.collect()
    assert not any(gc.is_tracked(cell) for cls in parsed.classes for cell in cls)


# ------------------------------------------------------------
# the block parser against the reference
# ------------------------------------------------------------

# Block sizes in characters: every cut lands on a line end or before a
# cell, so small sizes put block boundaries everywhere in a small file.
BLOCK_SIZES = (1, 2, 5, 9, 26, 8192)


@pytest.mark.parametrize("block_chars", BLOCK_SIZES)
def test_parse_matches_reference_on_every_small_witness(block_chars, monkeypatch):
    monkeypatch.setattr(files, "_BLOCK_CHARS", block_chars)
    count = 0
    for text in kronecker_witnesses(6):
        parsed = parse_coloring(text)
        assert parsed == reference_parse_coloring(text)
        assert all(type(cell) is tuple for cls in parsed.classes for cell in cls)
        assert format_coloring(parsed) == text
        count += 1
    assert count == 815


_SEEDS = [t for t in kronecker_witnesses(4, rs=(1,)) if t.count("\n") <= 12]
_ALPHABET = list("0123456789(), :\n") + [
    "\r", "\t", "٣", "３", "²", "\xa0", "\x85", "\x1c", "\u2003", "m=", "%s", "0" * 4400,
]


@settings(max_examples=400, deadline=None)
@given(
    seed=st.sampled_from(_SEEDS),
    edits=st.lists(
        st.tuples(st.integers(0, 2), st.floats(0, 1), st.sampled_from(_ALPHABET)),
        min_size=1,
        max_size=4,
    ),
    block_chars=st.sampled_from(BLOCK_SIZES),
)
def test_parse_matches_reference_on_mutated_texts(seed, edits, block_chars):
    text = seed
    for kind, where, piece in edits:
        at = int(where * len(text))
        if kind == 0:
            text = text[:at] + text[at + 1 :]
        elif kind == 1:
            text = text[:at] + piece + text[at:]
        else:
            text = text[:at] + piece + text[at + 1 :]
    saved = files._BLOCK_CHARS
    files._BLOCK_CHARS = block_chars
    try:
        assert_parses_like_reference(text)
    finally:
        files._BLOCK_CHARS = saved


def _one_cell_lines(cols):
    """Class lines of 9 characters with their LF: ``i: (1,j)`` for i < 10."""
    body = "".join(f"{i}: (1,{j})\n" for i, j in enumerate(cols, 1))
    return f"equicolor v1\nm=1 n=9 k={len(cols)}\n{body}"


@pytest.mark.parametrize("k", [2, 3, 4])
def test_block_boundaries_in_lines(k, monkeypatch):
    # A block of 26 characters ends at the LF of its third 9-character
    # line, so the blocks here hold B = 3 whole lines.
    monkeypatch.setattr(files, "_BLOCK_CHARS", 3 * 9 - 1)
    clean = _one_cell_lines(range(1, k + 1))
    assert parse_coloring(clean).sizes() == [1] * k
    texts = [clean]
    for line in range(3, k + 3):  # a defect on each line, in turn
        lines = clean.split("\n")
        for bad in (lines[line - 1].replace(" (", "("), "9" + lines[line - 1],
                    lines[line - 1].replace("(1,", "(2,")):
            texts.append("\n".join(lines[: line - 1] + [bad] + lines[line:]))
    for text in texts:
        assert_parses_like_reference(text)


def test_error_on_the_first_line_of_the_second_block(monkeypatch):
    monkeypatch.setattr(files, "_BLOCK_CHARS", 3 * 9 - 1)
    text = _one_cell_lines(range(1, 7)).replace("4: (1,4)", "4: (1,4 )")
    with pytest.raises(ColoringFileError) as exc:
        parse_coloring(text)
    assert exc.value.line == 6
    assert_parses_like_reference(text)


def test_first_block_grid_error_wins_over_a_later_malformed_line(monkeypatch):
    monkeypatch.setattr(files, "_BLOCK_CHARS", 3 * 9 - 1)
    text = _one_cell_lines(range(1, 7)).replace("2: (1,2)", "2: (2,2)")
    text = text.replace("5: (1,5)", "5: (1,5")
    with pytest.raises(ColoringFileError) as exc:
        parse_coloring(text)
    assert (exc.value.line, "outside the 1x9 grid" in str(exc.value)) == (4, True)
    assert_parses_like_reference(text)


@pytest.mark.parametrize("per_line, mid_line", [(3, False), (4, True)])
def test_defects_around_the_default_block_boundary(per_line, mid_line):
    # 1,400 classes of 3 (4) cells on one row: the first default-size
    # block ends at a line end (inside a line, just before a cell).
    cols = iter(range(1, 1400 * per_line + 1))
    lines = [
        f"{i}:" + "".join(f" (1,{next(cols)})" for _ in range(per_line))
        for i in range(1, 1401)
    ]
    head = f"equicolor v1\nm=1 n={1400 * per_line} k=1400\n"
    clean = head + "\n".join(lines) + "\n"
    cut = files._BLOCK_END.search(clean, len(head) + files._BLOCK_CHARS)
    assert clean.startswith(" (", cut.start()) is mid_line
    middle = clean.count("\n", 0, cut.start()) - 1  # index of the cut line
    assert_parses_like_reference(clean)
    for line in range(middle - 1, middle + 3):
        for old, new in ((" (1,", " (2,"), (") (", ")("), (f"{line}:", f"{line + 1}:")):
            at = lines[line - 1]
            for bad in (at.replace(old, new, 1), at[::-1].replace(old[::-1], new[::-1], 1)[::-1]):
                edited = lines[: line - 1] + [bad] + lines[line:]
                assert_parses_like_reference(head + "\n".join(edited) + "\n")


@pytest.mark.parametrize(
    "line, valid",
    [
        ("٣: (١,٢)", True),  # Arabic-Indic digits are decimal, as \\d reads them
        ("3: (３,2)", True),  # fullwidth 3
        ("3: (1,²)", False),  # superscript two is a digit but not decimal
        ("3:\xa0(1,2)", False),
        ("3: (1,2)\x85", False),
        ("3: (1,\x1c2)", False),
        ("3: (1,2)\u2003(1,3)", False),
        ("3: (1,2)\r", False),
        ("3 : (1,2)", False),
        ("3: (1,2) ", False),
        ("3:  (1,2)", False),
        ("3", False),  # decimal, but no colon
        ("3: (+1,2)", False),
        ("3: (1_0,2)", False),
        ("03: (01,002)", True),
    ],
)
def test_unicode_digits_and_spaces_match_reference(line, valid):
    text = f"equicolor v1\nm=3 n=3 k=3\n1:\n2:\n{line}\n"
    got = outcome(parse_coloring, text)
    assert isinstance(got, Coloring) is valid
    assert_parses_like_reference(text)


def test_numbers_beyond_int_digit_limit_fail_where_the_reference_does():
    # int() refuses more than 4300 digits; both parsers report it as a
    # file error on its line, after any error an earlier check finds.
    huge = "1" * 4400
    head = "equicolor v1\nm=2 n=2 k=3\n"
    for lines, line_no in (
        (["1: (3,1)", f"2: (1,{huge})", "3:"], 3),  # the earlier grid error wins
        ([f"1: (1,1) (1,{huge})", "2: (3,1)", "3:"], 3),
        ([f"1: (3,1) (1,{huge})", "2:", "3:"], 3),
        ([f"{huge}: (1,1)", "2:", "3:"], 3),
        (["1:", "2: (1,1", f"3: ({huge},1)"], 4),
        (["1:", "2: (1,1)", f"3: ({huge},1)"], 5),
    ):
        text = head + "\n".join(lines) + "\n"
        with pytest.raises(ColoringFileError) as exc:
            parse_coloring(text)
        assert exc.value.line == line_no
        assert_parses_like_reference(text)
    for size_line in (f"m={huge} n=2 k=1", f"m=2 n=2 k={huge}"):
        text = f"equicolor v1\n{size_line}\n1:\n"
        with pytest.raises(ColoringFileError, match="4400 digits") as exc:
            parse_coloring(text)
        assert exc.value.line == 2
        assert_parses_like_reference(text)


def test_one_long_line_parses_in_bounded_memory():
    # 200,000 cells in one class: the regex line match kept per-vertex
    # backtracking state and peaked at 2.6x the parsed coloring; blocks
    # cut before a cell keep the parse near the coloring's own size.
    n = 200_000
    text = f"equicolor v1\nm=1 n={n} k=1\n1:" + "".join(f" (1,{j})" for j in range(1, n + 1))
    gc.collect()
    tracemalloc.start()
    try:
        parsed = parse_coloring(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed.sizes() == [n] and parsed.classes[0][-1] == (1, n)
    assert peak <= 1.5 * retained


@pytest.mark.parametrize("m", [1, 10**9])
def test_the_declared_grid_size_costs_no_memory(m):
    # The parser's name tables are bounded by the body, not by m and n: a
    # table sized from this header would hold 10**9 names.
    text = f"equicolor v1\nm={m} n=1000000000 k=1\n1: (1,5)\n"
    gc.collect()
    tracemalloc.start()
    try:
        parsed = parse_coloring(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.classes == (((1, 5),),)
    assert peak < 64 * 1024


def assert_parses_to_exact_ints_like_reference(text):
    assert_parses_like_reference(text)
    parsed = parse_coloring(text)
    assert all(type(v) is int for cls in parsed.classes for cell in cls for v in cell)
    return parsed


@pytest.mark.parametrize(
    "m, n, r, k",
    [
        (300, 400, 1, 1000),  # scatter, with numbers past the cached small ints
        (2, files._BLOCK_CHARS + 50, 1, 4),  # columns past the largest table
        (1, files._BLOCK_CHARS + 300, 1, 3000),
    ],
)
def test_parse_matches_reference_past_the_name_tables(m, n, r, k):
    text = format_coloring(color_kronecker(Params(m, n, r), k))
    assert format_coloring(assert_parses_to_exact_ints_like_reference(text)) == text


@pytest.mark.parametrize("block_chars", [26, files._BLOCK_CHARS])
def test_a_block_with_names_the_tables_lack_is_read_with_int(block_chars, monkeypatch):
    # The 700 columns of a 3x700 grid as classes.  Line 350, in a middle
    # block, writes rows 1 and 3 as "01" and a fullwidth "３"; int() reads
    # both, so that block alone leaves the tables for the int() route.
    monkeypatch.setattr(files, "_BLOCK_CHARS", block_chars)
    lines = [f"{j}: (1,{j}) (2,{j}) (3,{j})" for j in range(1, 701)]
    head = "equicolor v1\nm=3 n=700 k=700\n"
    clean = parse_coloring(head + "\n".join(lines) + "\n")
    lines[349] = "350: (01,350) (2,350) (\uff13,350)"
    assert assert_parses_to_exact_ints_like_reference(head + "\n".join(lines) + "\n") == clean


# ------------------------------------------------------------
# file I/O, as the CLI and README's migration note do it
# ------------------------------------------------------------


def read_coloring(path):
    """The file's bytes as a coloring, with no newline translation."""
    return parse_coloring(decode_ascii(path.read_bytes()))


def test_write_then_read_round_trip(tmp_path):
    path = tmp_path / "witness.ec"
    path.write_bytes(format_coloring(two_rows()).encode("ascii"))
    assert path.read_bytes() == GOLDEN.encode("ascii")
    assert read_coloring(path) == two_rows()


def test_read_rejects_crlf_line_endings(tmp_path):
    # No newline translation on reading: CRLF fails at line 1, as it does
    # in parse_coloring.
    path = tmp_path / "crlf.ec"
    path.write_bytes(GOLDEN.replace("\n", "\r\n").encode("ascii"))
    with pytest.raises(ColoringFileError) as exc:
        read_coloring(path)
    assert exc.value.line == 1


@pytest.mark.parametrize("at, line", [(0, 1), (len("equicolor v1\nm=2 n=2 k=2\n1: "), 3),
                                      (len(GOLDEN) - 1, 4)])
def test_read_reports_a_non_ascii_byte_at_its_line(at, line, tmp_path):
    path = tmp_path / "latin.ec"
    path.write_bytes(GOLDEN[:at].encode("ascii") + b"\xe9" + GOLDEN[at:].encode("ascii"))
    with pytest.raises(ColoringFileError) as exc:
        read_coloring(path)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: file is not ASCII: ")
    assert exc.value.__context__ is None  # the error keeps no hold on the bytes
