"""The ``equicolor v1`` coloring file format.

Bit-exact layout, designed so golden files diff cleanly:

* line 1: ``equicolor v1``
* line 2: ``m=<m> n=<n> k=<k>``
* lines 3..k+2: ``<class-index>: (i,j) (i,j) ...`` — classes in index
  order starting at 1, vertices sorted row-major, single ASCII spaces,
  no trailing spaces.  An empty class is written as ``<class-index>:``.

Lines end with LF.  The writer always terminates the file with a final
LF; the parser accepts its absence but nothing else.  The parser checks
structure and grid bounds only — semantic judgement (partition,
independence, balance) belongs to :func:`equicolor.grid.verify`, and a
file may well parse cleanly yet describe an invalid coloring.

Both directions work in bulk string operations rather than a Python step
per cell.  The writer fills one ``%``-template per 256 classes.  The
parser reads the class lines in blocks of about ``_BLOCK_CHARS``
characters, cut at a line end or else just before a cell, so a block's
temporary strings stay small however long a line is.  A block is checked
whole: each line must read ``<digits>:`` and then `` (<digits>,<digits>)``
repeats, which holds exactly when its index is decimal, its body is its
own number tokens put back into that template and every token is decimal
(the same grammar as ``^(\\d+):((?: \\(\\d+,\\d+\\))*)$``, without the
backtracking state a regex keeps per vertex), and indexes must run on.
Rows and columns are read through two tables, built per parse, from the
names ``"1"``, ``"2"``, ... of each side to their ints: a hit proves a
token decimal and inside the grid, and equal numbers share one int.  A
table stops at its side, at the cells the body could hold and at
``_BLOCK_CHARS`` names, so a header cannot make it large.  A block with a
token the tables lack (leading zeros, other decimal digits, a larger
number) takes the ``int`` route: ``isdecimal``, ``int()``, and grid
bounds by ``min``/``max`` over the block.  If any check fails, the lines
the block touches are checked one by one, so the error reported is the
first a line-by-line reading meets: a malformed line, then an index out
of order, then a vertex outside the grid.
"""

from __future__ import annotations

import re
from itertools import chain, groupby, islice, repeat

from .errors import ColoringFileError, InternalCheckError
from .grid import Cell, Coloring

HEADER = "equicolor v1"

_SIZE_LINE = re.compile(r"^m=(\d+) n=(\d+) k=(\d+)$")
_PUNCTUATION = str.maketrans("(,)", "   ")
_BLOCK_END = re.compile(r"\n| \(")
# About 900 cells: a block's tokens and ints then stay small next to the
# coloring, and the per-block work is still a small share of the parse.
_BLOCK_CHARS = 8192
_FORMAT_CLASSES = 256


def format_coloring(coloring: Coloring) -> str:
    """Serialize a coloring, normalizing vertex order within classes."""
    lines = [HEADER, f"m={coloring.m} n={coloring.n} k={coloring.k}"]
    for at in range(0, coloring.k, _FORMAT_CLASSES):
        block = list(map(sorted, coloring.classes[at : at + _FORMAT_CLASSES]))
        template = "\n".join(
            [f"{index}:" + " (%s,%s)" * len(cls) for index, cls in enumerate(block, at + 1)]
        )
        lines.append(template % tuple(chain.from_iterable(chain.from_iterable(block))))
    lines.append("")  # the final LF
    return "\n".join(lines)


def parse_coloring(text: str) -> Coloring:
    """Parse ``equicolor v1`` text into a Coloring.

    Raises:
        ColoringFileError: on any structural defect, with the 1-based
            line number of the first offending line.
    """
    end = len(text) - text.endswith("\n")  # the canonical trailing LF
    size_at = (text.find("\n", 0, end) + 1) or end + 1
    if text[: size_at - 1] != HEADER:
        raise ColoringFileError(f"expected header {HEADER!r}", 1)
    if size_at > end:
        raise ColoringFileError("missing size line 'm=<m> n=<n> k=<k>'", 2)
    pos = (text.find("\n", size_at, end) + 1) or end + 1
    size_line = text[size_at : pos - 1]
    size_match = _SIZE_LINE.match(size_line)
    if size_match is None:
        raise ColoringFileError(
            f"malformed size line {size_line!r}; expected 'm=<m> n=<n> k=<k>'", 2
        )
    m, n, k = (_number(g, 2) for g in size_match.groups())
    if m < 1 or n < 1 or k < 1:
        raise ColoringFileError(f"m, n, k must all be >= 1, got m={m} n={n} k={k}", 2)
    found = text.count("\n", pos, end) + 1 if pos <= end else 0
    if found != k:
        raise ColoringFileError(
            f"expected exactly {k} class lines for k={k}, found {found}",
            min(found, k) + 3,
        )
    # A cell, " (i,j)", takes at least 6 characters of the body.
    values = range(1, min(max(m, n), (end - pos) // 6, _BLOCK_CHARS) + 1)
    names = dict(zip(map(str, values), values))
    rows_of, cols_of = (dict(islice(names.items(), side)) for side in (m, n))
    classes: list[tuple[Cell, ...]] = []
    pending: list[Cell] = []  # cells so far of a line a block cut short
    inside = False  # whether the block at pos starts inside a line
    while pos <= end:
        cut_match = _BLOCK_END.search(text, min(pos + _BLOCK_CHARS, end), end)
        cut = cut_match.start() if cut_match else end
        cuts_line = text.startswith(" (", cut)
        first = len(classes) + 1
        segments = text[pos:cut].split("\n")
        if inside:  # give the cut line its index back, so it reads as a line
            segments[0] = f"{first}:" + segments[0]
        parts = _block_classes(segments, first, m, n, rows_of, cols_of)
        if parts is None:
            start = text.rfind("\n", 0, pos) + 1
            stop = text.find("\n", cut, end)
            lines = text[start : stop if stop >= 0 else end].split("\n")
            for index, line in enumerate(lines, first):
                _check_line(line, index, m, n)
            raise InternalCheckError(f"class lines from {first + 2} rejected only as a block")
        pending += parts[0]
        if len(parts) > 1 or not cuts_line:
            parts[0] = tuple(pending)
            pending = list(parts.pop()) if cuts_line else []
            classes += parts
        inside = cuts_line
        pos = cut if cuts_line else cut + 1
    return Coloring(m, n, tuple(classes))


def _block_classes(
    lines: list[str], first: int, m: int, n: int, rows_of: dict[str, int], cols_of: dict[str, int]
) -> list[tuple[Cell, ...]] | None:
    """The cells of class lines first, first+1, ..., one tuple per line, or
    None if a line is malformed, out of order or leaves the grid.  Numbers
    are read through the name tables ``rows_of`` and ``cols_of`` when they
    hold every token, else with int()."""
    heads, seps, bodies = zip(*map(str.partition, lines, repeat(":")))
    counts = list(map(str.count, bodies, repeat("(")))
    toks = _tokens(heads, seps, bodies, counts)
    try:
        if toks is None or list(map(int, heads)) != list(range(first, first + len(lines))):
            return None
        try:
            if len(cols_of) < n:  # a wide grid: its columns miss first
                cols = list(map(cols_of.__getitem__, toks[1::2]))
            rows = list(map(rows_of.__getitem__, toks[0::2]))
            if len(cols_of) == n:
                cols = list(map(cols_of.__getitem__, toks[1::2]))
        except KeyError:  # leading zeros, other decimal digits or a large value
            if not all(map(str.isdecimal, toks)):
                return None
            nums = list(map(int, toks))
            rows, cols = nums[0::2], nums[1::2]
            if not (1 <= min(rows) and max(rows) <= m and 1 <= min(cols) and max(cols) <= n):
                return None
    except ValueError:  # a number too long for int(); _check_line finds it
        return None
    cells = zip(rows, cols)
    classes: list[tuple[Cell, ...]] = []
    for size, run in groupby(counts):  # one step per run of equal counts
        many = len(list(run))
        classes += islice(zip(*[cells] * size), many) if size else repeat((), many)
    return classes


def _tokens(
    heads: tuple[str, ...], seps: tuple[str, ...], bodies: tuple[str, ...], counts: list[int]
) -> list[str] | None:
    """The number tokens of class lines, not yet known to be decimal, or
    None if one breaks the grammar.

    The lines come split by ``str.partition(":")``; ``counts`` holds the
    opening parentheses of each body.
    """
    text = "\n".join(bodies)
    toks = text.translate(_PUNCTUATION).split()
    if (
        2 * sum(counts) == len(toks)
        and all(seps)
        and all(map(str.isdecimal, heads))
        and "\n".join(map(" (%s,%s)".__mul__, counts)) % tuple(toks) == text
    ):
        return toks
    return None


def _check_line(line: str, index: int, m: int, n: int) -> None:
    """Raise the first defect of class line ``index``, in the order a
    line-by-line parse meets them: grammar, index, then each vertex."""
    line_no = index + 2
    head, sep, body = line.partition(":")
    toks = _tokens((head,), (sep,), (body,), [body.count("(")])
    if toks is None or not all(map(str.isdecimal, toks)):
        raise ColoringFileError(
            f"malformed class line {line!r}; expected "
            f"'<class-index>: (i,j) (i,j) ...'",
            line_no,
        )
    got = _number(head, line_no)
    if got != index:
        raise ColoringFileError(f"class index {got} out of order; expected {index}", line_no)
    nums = map(_number, toks, repeat(line_no))
    for i, j in zip(nums, nums):
        if not (1 <= i <= m and 1 <= j <= n):
            raise ColoringFileError(f"vertex ({i},{j}) outside the {m}x{n} grid", line_no)


def _number(token: str, line_no: int) -> int:
    """``int(token)``, or a file error if it has more digits than int() reads."""
    try:
        return int(token)
    except ValueError:
        raise ColoringFileError(f"number of {len(token)} digits is too long", line_no) from None


def decode_ascii(data: bytes) -> str:
    """``data`` as ASCII text, or a file error at the line of its first
    non-ASCII byte."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line, reason = data.count(b"\n", 0, exc.start) + 1, str(exc)
    # Raised outside the handler, so the error holds no reference to data.
    raise ColoringFileError(f"file is not ASCII: {reason}", line)
