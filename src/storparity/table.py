"""The one CSV dialect of every file storparity reads or writes.

A document's first non-blank line is its header. A leading UTF-8 BOM, blank
lines and whitespace around each field are ignored, fields hold no commas,
and every error names the physical line. Documents are written with ``\\n``
line ends.

Readers take a document as columns (read_columns) and check whole columns.
Only when a check fails do they walk it row by row (read_rows) to name the
first bad line, so the fast path and the error messages cannot drift apart.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, Iterator, NoReturn

from .errors import MalformedRowError


def read_columns(text: str, header: str, what: str) -> list[list[str]]:
    """The stripped fields of each column of text's data rows, in row order.

    Raises what read_rows raises, naming the same line, when the header or a
    row's field count is wrong.
    """
    first, *rows = list(filter(str.strip, text.removeprefix("\ufeff").splitlines())) or [""]
    width = header.count(",") + 1
    if first.strip() != header or set(map(str.count, rows, repeat(","))) - {width - 1}:
        reject(list, read_rows(text, header, what))
    fields = ",".join(rows).split(",") if rows else []
    return [list(map(str.strip, fields[i::width])) for i in range(width)]


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
