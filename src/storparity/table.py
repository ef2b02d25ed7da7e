"""The one CSV dialect of every file storparity reads or writes.

A document's first non-blank line is its header. A leading UTF-8 BOM, blank
lines and whitespace around each field are ignored, fields hold no commas,
and every error names the physical line. Documents are written with ``\\n``
line ends.

Readers take a document as columns (read_columns) and check whole columns.
Only when a check fails do they walk it row by row (read_rows) to name the
first bad line, so the fast path and the error messages cannot drift apart.
A document proven plain (see _plain_columns) is split once, with no field
to strip.

Numbered rows of fixed-point values (numbered_rows) are laid out as digits
by numpy, and a row the digits cannot write exactly falls back to its %
template, which defines the bytes.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .errors import MalformedRowError

#: numbered_rows lays out this many rows at a time: enough to pay numpy's
#: per-call cost once per tens of thousands of values, few enough that its
#: buffers (about 1 MB for a trace's nine fields) stay small next to a
#: quarter-hour year's text (about 3 MB).
_BLOCK = 4096

#: Magnitudes below this are written from their digits; a micro-unit count
#: below 1e15 is an exact float64 integer.
_DIGITS_BELOW = 1e9

#: 10 ** 1 ... 10 ** 18; a count of these at or below n, plus one, is n's length in digits.
_POWERS = 10.0 ** np.arange(1, 19)

_ZERO, _MINUS, _POINT, _COMMA, _NEWLINE, _SPACE = b"0-.,\n "
_LINE_END = np.frombuffer(b"\n", np.uint8)

#: _plain_columns looks this many characters into a document for the cheap signs
#: that it is not plain, before its checks of the whole document.
_HEAD = 4096


def read_columns(text: str, header: str, what: str) -> list[list[str]]:
    """The stripped fields of each column of text's data rows, in row order.

    Raises what read_rows raises, naming the same line, when the header or a
    row's field count is wrong.
    """
    columns = _plain_columns(text, header)
    if columns is not None:
        return columns
    first, *rows = list(filter(str.strip, text.removeprefix("\ufeff").splitlines())) or [""]
    width = header.count(",") + 1
    if first.strip() != header or set(map(str.count, rows, repeat(","))) - {width - 1}:
        reject(list, read_rows(text, header, what))
    fields = ",".join(rows).split(",") if rows else []
    return [list(map(str.strip, fields[i::width])) for i in range(width)]


def _plain_columns(text: str, header: str) -> list[list[str]] | None:
    """read_columns of a plain document, split once; None for any other document.

    A plain document is ASCII with no control byte but its "\\n" or "\\r\\n"
    line ends, so str.splitlines breaks it at those alone and str.strip
    strips only spaces. It has no blank line and no space beside a comma or a
    line end, so no field needs stripping, its first line is header, and
    each line holds width - 1 commas. Most documents that are not plain
    show it in their first lines, so a tab anywhere, or a padded field or a
    blank line there, turns the document away before it is copied.
    """
    head = text[:_HEAD]
    if (not text.isascii() or "\t" in text
            or any(mark in head for mark in (" ,", ", ", " \n", "\n ", " \r", "\n\n", "\n\r\n"))):
        return None
    body = text.replace("\r\n", "\n") if "\r" in text else text  # a lone "\r" stays
    data = np.frombuffer(body.encode("ascii"), np.uint8)
    ends = np.flatnonzero(data == _NEWLINE)
    if ends.size and ends[-1] == len(data) - 1:  # the last line's end: no line after it
        data, ends = data[:-1], ends[:-1]
    if (np.count_nonzero(data < 32) != len(ends)  # a control byte other than "\n"
            or not body.startswith(header) or len(header) != (ends[0] if ends.size else len(data))
            or (np.diff(ends, prepend=-1, append=len(data)) == 1).any()):  # a blank line
        return None
    if " " in body:  # one at a line's ends or beside a comma would be stripped
        lined = np.concatenate((_LINE_END, data, _LINE_END))
        beside = lined[np.add.outer((0, 2), np.flatnonzero(data == _SPACE))]
        if ((beside == _NEWLINE) | (beside == _COMMA)).any():
            return None
    width = header.count(",") + 1
    commas = np.flatnonzero(data == _COMMA)
    if (np.diff(np.searchsorted(commas, ends), prepend=0, append=len(commas)) != width - 1).any():
        return None
    fields = body.replace("\n", ",").split(",")
    if len(data) < len(body):  # the empty field after the last line's end
        fields.pop()
    return [fields[width + i::width] for i in range(width)]


def read_rows(text: str, header: str, what: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (physical line number, stripped fields) for each data row of text.

    Raises MalformedRowError, naming the document as what, when the first
    non-blank line is not header, or when a row has not one field per column.
    """
    lines = enumerate(text.removeprefix("\ufeff").splitlines(), start=1)
    first = next((line.strip() for _, line in lines if line.strip()), "")
    if first != header:
        raise MalformedRowError(f"{what} must start with header '{header}', got '{first}'")
    width = header.count(",") + 1
    for lineno, line in lines:
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise MalformedRowError(f"line {lineno}: expected {width} fields, got {len(fields)}")
        yield lineno, [field.strip() for field in fields]


def reject(locate: Callable[..., object], *args) -> NoReturn:
    """Run locate(*args), a row-by-row reader that must raise the first bad line's error.

    Column checks call this once they have found a document bad. A row
    reader that then accepts the document is a bug in one of the two.
    """
    locate(*args)
    raise RuntimeError("column checks rejected a document that its row-by-row reader accepts")


def write_rows(header: str, rows: Iterable[str]) -> str:
    """The header and the rows, one per line, each ended by ``\\n``."""
    return "\n".join([header, *rows]) + "\n"


def numbered_rows(columns: Sequence[np.ndarray]) -> Iterator[str]:
    """Yield the rows ``row % (i, *values)`` of equal-length float64 columns, a block at a time.

    row is ``"%d," + ",".join(["%.6f"] * len(columns))`` and i counts rows
    from 0. A block's rows are joined by ``\\n``, with none after the last.
    The bytes are the template's: a value is written from the digits of its
    micro-unit count when that count is provably the correctly rounded one
    (see _micro_units), and a row holding any other value (a tie on the
    seventh decimal, a magnitude of 1e9 or more, NaN or an infinity) is
    formatted by the template itself.
    """
    row = "%d," + ",".join(["%.6f"] * len(columns))
    n = len(columns[0]) if columns else 0
    values = np.empty((min(n, _BLOCK), len(columns)))
    widest = max(len(str(int(_DIGITS_BELOW))) + 9, len(str(n)) + 1)  # see _lay_out's width
    text = np.empty(values.shape[0] * (len(columns) + 1) * widest, np.uint8)
    for lo in range(0, n, _BLOCK):
        block = np.stack([column[lo:lo + _BLOCK] for column in columns], axis=1,
                         out=values[:min(n - lo, _BLOCK)])
        units, exact = _micro_units(block)
        pieces, start = [], 0
        for cut in [*np.flatnonzero(~exact.all(axis=1)).tolist(), len(block)]:
            if start < cut:
                pieces.append(_lay_out(lo + start, units[start:cut], block[start:cut], text))
            if cut < len(block):
                pieces.append(row % (lo + cut, *block[cut].tolist()))
            start = cut + 1
        yield "\n".join(pieces)


def _micro_units(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each |value| * 1e6 rounded to an integer, and where that is exactly what "%.6f" writes.

    y = fl(|x| * 1e6) is within half its spacing s of the exact product, so
    where |y - rint(y)| < 0.5 - s, rint(y) is the exact product's nearest
    integer, and no tie: the digits of the correctly rounded "%.6f". NaN,
    the infinities and |x| >= 1e9 are never exact here.
    """
    # NaN, the infinities and |x| * 1e6 past the float range warn, and are never exact
    with np.errstate(over="ignore", invalid="ignore"):
        magnitude = np.abs(values)
        scaled = magnitude * 1e6
        units = np.rint(scaled)
        slack = 0.5 - np.spacing(scaled)
        error = np.abs(np.subtract(scaled, units, out=scaled), out=scaled)
        exact = (error < slack) & (magnitude < _DIGITS_BELOW)
    return units, exact


def _lay_out(first: int, units: np.ndarray, values: np.ndarray, text: np.ndarray) -> str:
    """Rows first, first + 1, ... of numbered_rows for values of micro-unit counts units.

    Each field is written right-aligned into a cell of one width in text,
    its separator last; the bytes left of a field are 0 and are dropped.
    """
    n, k = units.shape
    whole = np.floor(units / 1e6)  # exact, as _put_digits' floor(n / 10)
    fraction = units - whole * 1e6
    digits, steps = len(str(int(whole.max()))), len(str(first + n - 1))
    width = max(digits + 9, steps + 1)  # sign, digits, ".", 6 decimals, ","
    cells = text[:n * (k + 1) * width].reshape(n, k + 1, width)
    cells.fill(0)
    cells[..., -1] = _COMMA
    cells[:, -1, -1] = _NEWLINE
    cells[-1, -1, -1] = 0
    fields = cells[:, 1:]
    fields[..., -8] = _POINT
    _put_digits(fields[..., -7:-1], fraction, leading_zeros=True)
    _put_digits(fields[..., -8 - digits:-8], whole)
    _put_digits(cells[:, 0, -1 - steps:-1], np.arange(first, first + n, dtype=float))
    negative = np.signbit(values)
    if negative.any():
        i, j = np.nonzero(negative)
        fields[i, j, width - 10 - np.searchsorted(_POWERS, whole[i, j], side="right")] = _MINUS
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _put_digits(out: np.ndarray, numbers: np.ndarray, leading_zeros: bool = False) -> None:
    """Write whole floats below 2 ** 49 in decimal, right-aligned in out's last axis.

    out must be wide enough for every number. Places left of a number's
    first digit get "0" with leading_zeros, else 0 bytes; 0 itself is
    written "0". Below 2 ** 49 each n / 10 is correctly rounded below the
    next integer, so floor(n / 10) is exact.
    """
    for place in range(out.shape[-1]):
        column = out[..., -1 - place]
        blank = None if leading_zeros or not place else numbers == 0
        rest = np.floor(numbers / 10)
        np.add(numbers - rest * 10, _ZERO, out=column, casting="unsafe")
        if blank is not None:
            column[blank] = 0
        numbers = rest
