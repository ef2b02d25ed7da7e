import random

import pytest
from hypothesis import given, settings, strategies as st

from storparity.errors import MalformedRowError
from storparity.profiles import PROFILE_CSV_HEADER
from storparity.table import _HEAD, _plain_columns, read_columns, read_rows

HEADER = "a,b,c"

#: Line ends: the two a plain document may use, and every other break of
#: str.splitlines.
LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]

#: Fields, some padded with what str.strip strips (spaces, tabs, "\xa0", "\u3000"),
#: some holding inner spaces or non-ASCII text.
FIELDS = ["", "x", "1.5", "-0", "two words", " x", "x ", "\tx", "x\x1f", "\xa0x", "x\u3000",
          "é", "日本", "x\x00y", "~"]


def led(text, header):
    """text with plain rows after its first line end, enough to push the rest past
    the head that _plain_columns looks at first, so its whole-document checks decide."""
    row = ",".join(["1"] * (header.count(",") + 1)) + "\n"
    first, end, rest = text.partition("\n")
    return first + end + row * (_HEAD // len(row) + 1) + rest if end else text


def outcome(read):
    """What read() returns, or the message of the MalformedRowError it raises."""
    try:
        return read()
    except MalformedRowError as exc:
        return ("error", str(exc))


def transposed_rows(text, header):
    """read_rows' fields, a list per column; or its error."""
    width = header.count(",") + 1
    rows = outcome(lambda: [fields for _, fields in read_rows(text, header, "doc")])
    if isinstance(rows, tuple):
        return rows
    return [[row[i] for row in rows] for i in range(width)]


@st.composite
def documents(draw):
    """A header and rows of three fields joined by line ends, each piece plain but for a
    drawn share (none in some documents) that is not: a BOM, another header, a field
    count, a blank line, another line end or field. Half the documents are led (see led)."""
    odd = draw(st.sampled_from([0, 0, 3, 15, 50]))  # percent of pieces that are not plain

    def pick(plain, other):
        return draw(st.sampled_from(other if draw(st.integers(0, 99)) < odd else plain))

    lines = [pick([HEADER], [" " + HEADER, "a,b", "\ufeff" + HEADER])]
    for _ in range(draw(st.integers(0, 8))):
        width = pick([3], [0, 1, 2, 4, 5])
        lines.append(",".join(pick(["x", "1.5", "-0", "two words", "~"], FIELDS)
                              for _ in range(width)))
        blank = pick([None], ["", " ", "\t", "\xa0", "\u3000"])
        if blank is not None:
            lines.append(blank)
    text = "".join(line + pick(["\n", "\r\n"], LINE_ENDS) for line in lines)
    text = text.removesuffix("\n") if draw(st.booleans()) else text
    return led(text, HEADER) if draw(st.booleans()) else text


class TestReadColumns:
    @settings(max_examples=400, deadline=None)
    @given(documents())
    def test_columns_are_the_transposed_rows(self, text):
        assert outcome(lambda: read_columns(text, HEADER, "doc")) == transposed_rows(text, HEADER)

    @pytest.mark.parametrize("text", [
        "a,b,c\n", "a,b,c", "a,b,c\n1,2,3", "a,b,c\n1,2,3\n", "a,b,c\r\n1,2,3\r\n",
        "a,b,c\n1,,3\n", "a,b,c\n,,\n", "a,b,c\ntwo words,x y,z\n", "a,b,c\n\x7f,~,!\n",
    ])
    def test_plain_documents_are_split_once(self, text):
        for doc in (text, led(text, HEADER)):
            assert _plain_columns(doc, HEADER) == transposed_rows(doc, HEADER)

    @pytest.mark.parametrize("text", [
        "\ufeffa,b,c\n1,2,3\n",  # a BOM
        "a,b,c\r1,2,3\n", "a,b,c\n1,2,3\r",  # a lone "\r"
        *(f"a,b,c{end}1,2,3\n" for end in ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]),
        "\na,b,c\n1,2,3\n", "a,b,c\n\n1,2,3\n", "a,b,c\n1,2,3\n\n", "a,b,c\n \n1,2,3\n",
        "a,b,c\r\n\r\n1,2,3\n",  # blank lines
        " a,b,c\n1,2,3\n", "a,b,c \n1,2,3\n", "a,b,c\n1 ,2,3\n", "a,b,c\n1, 2,3\n",
        "a,b,c\n1,2,3 \n", "a,b,c\n1,2,3 ", "a,b,c\n1,2,\t3\n", "a,b,c\n1,2,3\x1f\n",
        "a,b,c\n1,\xa02,3\n", "a,b,c\n1,2\u3000,3\n",  # padded fields
        "a,b,c\n1,é,3\n",  # non-ASCII text
        "a,b,c\n1,2\n", "a,b,c\n1,2,3,4\n", "a,b\n1,2\n", "a,b,c,d\n1,2,3\n", "",  # field counts
    ])
    def test_other_documents_take_the_row_path(self, text):
        for doc in (text, led(text, HEADER)):
            assert _plain_columns(doc, HEADER) is None
            assert outcome(lambda: read_columns(doc, HEADER, "doc")) == transposed_rows(doc, HEADER)

    @pytest.mark.parametrize("text, plain", [
        ("a\n1\n2\n", True), ("a\n1\n\n2\n", False), ("\na\n1\n", False), ("a\n1\n\n", False),
        ("a\n\n", False), ("a\n", True), ("a\n,\n", False),
    ])
    def test_one_column_documents(self, text, plain):
        # no comma to count on a blank line: the blank-line checks alone reject it
        for doc in (text, led(text, "a")):
            assert (_plain_columns(doc, "a") is not None) == plain
            assert outcome(lambda: read_columns(doc, "a", "doc")) == transposed_rows(doc, "a")

    def test_the_seeded_quarter_hour_load_csv_is_plain(self, perfbench_workloads):
        text = perfbench_workloads.measured_load_csv(random.Random("measured-quarter-hour:1"))
        columns = _plain_columns(text, PROFILE_CSV_HEADER)
        assert columns is not None and len(columns[0]) == 35040
        assert columns == transposed_rows(text, PROFILE_CSV_HEADER)
