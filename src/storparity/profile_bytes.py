"""The profile CSV reader's byte path: the form isoformat() and "%.Nf" write, read with numpy.

profiles.parse_profile_csv tries a document here first. The form is ASCII,
the header line, then on every line a stamp YYYY-MM-DDTHH:MM:SS, followed
by a Z (UTC) on every line or on none, a comma and a decimal of 1 to 15
digits with at most one point, neither first nor last, each line ending in
"\\n". byte_columns returns what the str column path (profiles._str_columns)
returns for such a document, bit for bit:

- The stamps become seconds from day numbers in int64, after every digit,
  separator and range is checked (29 February only in leap years), so each
  step is exactly what subtracting the two datetimes gives, naive or UTC.
- A decimal is M / 10 ** k, with M its digits and k the digits after the
  point. M is below 10 ** 15 < 2 ** 53 and 10 ** k is exact, so the one
  division rounds the decimal's exact value once, correctly, as float()
  does (Clinger's fast path).

Any other document, a date that does not exist among them, returns None
and takes the str column path, which reads it or names its first bad line.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .profiles import DAYS_IN_MONTH, PROFILE_CSV_HEADER

#: A line of the byte form starts with one of these, a 0 standing for any digit: a stamp
#: as datetime.isoformat() writes it, then the comma or a Z and the comma; keyed by the
#: byte after the stamp. The digits lie at the same places in both.
_STAMPS = {mark: np.frombuffer(form, np.uint8) for mark, form in [
    (",", b"0000-00-00T00:00:00,"), ("Z", b"0000-00-00T00:00:00Z,")]}
_STAMP_DIGITS = np.flatnonzero(_STAMPS[","] == ord("0"))
_NEWLINE, _POINT = b"\n."
#: The stamp's two-digit numbers, by the place of their first digit: century, year, month, day,
#: hour, minute, second; and the largest each may be.
_PAIRS = np.array([0, 2, 5, 8, 11, 14, 17])
_PAIR_MAX = np.array([[99], [99], [12], [31], [23], [59], [59]], np.uint8)
#: Indexed by a month, 1 to 12: its days, and the days before it, in a common year.
_MONTH_DAYS = np.array((0, *DAYS_IN_MONTH))
_DAYS_BEFORE = np.cumsum((0, 0, *DAYS_IN_MONTH[:-1]))
#: 10.0 ** k for k in 0..14, each exact (float() of an int is correctly rounded).
_TENS = np.array([float(10 ** k) for k in range(15)])
#: How many places lie to the right of each of the last 16 places of a field.
_AFTER = np.arange(15, -1, -1, dtype=np.uint8)


def byte_columns(text: str) -> tuple[np.ndarray, float] | None:
    """The powers and the step in seconds of a document in the byte form; None for any other."""
    # the byte after the first row's 19 stamp bytes: a document with an offset or a fraction
    # leaves at once
    after = len(PROFILE_CSV_HEADER) + 1 + 19
    stamp = _STAMPS.get(text[after:after + 1])
    if not (stamp is not None and text.isascii() and text.startswith(PROFILE_CSV_HEADER + "\n")
            and text.endswith("\n")):
        return None
    data = np.frombuffer(text.encode("ascii"), np.uint8)
    ends = np.flatnonzero(data == _NEWLINE)
    starts, ends = ends[:-1] + 1, ends[1:]
    widths = ends - starts - stamp.size  # of each decimal, in bytes
    if ends.size < 2 or widths.min() < 1 or widths.max() > 16:
        return None
    seconds = _stamp_seconds(_windows(data, starts, stamp.size), stamp)
    if seconds is None:
        return None
    steps = np.diff(seconds)
    if steps[0] <= 0 or (steps != steps[0]).any():
        return None
    values = _decimals(data, ends, widths)
    return None if values is None else (values, float(steps[0]))


def _windows(data: np.ndarray, starts: np.ndarray, size: int) -> np.ndarray:
    """The (size, len(starts)) block whose columns are data[start:start + size]."""
    return sliding_window_view(data, size)[starts].T.copy()


def _stamp_seconds(block: np.ndarray, stamp: np.ndarray) -> np.ndarray | None:
    """Seconds since 0001-01-01 of each column of a (stamp.size, rows) block of stamp bytes, or
    None if any column is not in the stamp's form or names no date and time."""
    digits = block - np.uint8(ord("0"))  # a digit's value; any other byte wraps past 9
    marks = stamp != ord("0")
    if (digits[_STAMP_DIGITS] > 9).any() or (block[marks] != stamp[marks, None]).any():
        return None
    pairs = digits[_PAIRS] * np.uint8(10) + digits[_PAIRS + 1]  # each below 100, so exact in uint8
    if (pairs > _PAIR_MAX).any():
        return None
    century, year, month, day, hour, minute, second = pairs.astype(np.int64)
    year += 100 * century
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    last_day = _MONTH_DAYS[month] + (leap & (month == 2))
    if (year < 1).any() or (day < 1).any() or (day > last_day).any():
        return None
    past = year - 1  # whole years before the stamp's
    days = (past * 365 + past // 4 - past // 100 + past // 400
            + _DAYS_BEFORE[month] + (leap & (month > 2)) + day)
    return ((days * 24 + hour) * 60 + minute) * 60 + second


def _decimals(data: np.ndarray, ends: np.ndarray, widths: np.ndarray) -> np.ndarray | None:
    """float() of each field data[end - width:end], or None unless every field is 1 to 15
    digits with at most one point, neither first nor last."""
    width = int(widths.max())
    places = _windows(data, ends - width, width)  # right-aligned: the last place ends each field
    inside = np.arange(width, 0, -1)[:, None] <= widths
    digits = places - np.uint8(ord("0"))
    points = places == _POINT
    count = np.add.reduce(points, axis=0, dtype=np.uint8)
    if ((inside & (digits > 9) & ~points).any() or (count > 1).any() or (widths - count > 15).any()
            or (data[ends - widths] == _POINT).any() or points[-1].any()):
        return None
    digits *= inside & ~points
    # Horner's rule on the digits alone: every partial sum is an integer below 2 ** 53, so exact
    scale = np.where(points, 1.0, 10.0)
    value = np.zeros(len(widths))
    for place in range(width):
        value = value * scale[place] + digits[place]
    # k, the digits after the point: the places to its right, or 0 where there is none
    after = np.add.reduce(points * _AFTER[-width:, None], axis=0, dtype=np.uint8)
    return value / _TENS[after]
