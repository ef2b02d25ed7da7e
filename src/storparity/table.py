"""The one CSV dialect of every file storparity reads or writes.

A document's first non-blank line is its header. A leading UTF-8 BOM, blank
lines and whitespace around each field are ignored, fields hold no commas,
and every error names the physical line. Documents are written with ``\\n``
line ends.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import MalformedRowError


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


def write_rows(header: str, rows: Iterable[str]) -> str:
    """The header and the rows, one per line, each ended by ``\\n``."""
    return "\n".join([header, *rows]) + "\n"
