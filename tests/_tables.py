"""Results tables for tests: built from rows, read as rows, compared column by column."""

from collections import namedtuple

import numpy as np

from storparity import ResultsTable
from storparity.sweep import RESULTS_CSV_HEADER

#: One result: the values of the results CSV's fields, in their order.
Row = namedtuple("Row", RESULTS_CSV_HEADER)


def table_of(rows) -> ResultsTable:
    """The table of a list of rows of the eleven results fields, in their order."""
    fields = map(list, zip(*rows)) if rows else [[]] * 11
    country, ptype, kwp, ratio, price, *metrics, parity = fields
    return ResultsTable(country, ptype, np.array(kwp, np.int64), ratio, price,
                        *(np.array(m, float) for m in metrics), np.array(parity, bool))


def values(table: ResultsTable) -> list[list]:
    """Each column of the table as a list of Python values, in field order."""
    columns = (getattr(table, name) for name in Row._fields)
    return [c if isinstance(c, list) else c.tolist() for c in columns]


def columns(table: ResultsTable) -> dict[str, str]:
    """Each column's values as repr writes them: equal reprs are equal types and bits,
    -0.0 apart from 0.0."""
    return dict(zip(Row._fields, map(repr, values(table))))


def rows(table: ResultsTable) -> list[Row]:
    """The table's results, in row order."""
    return list(map(Row, *values(table)))


def keys(table: ResultsTable) -> list[tuple]:
    """The table's scenario keys (country, type, kWp, ratio, BESS price), in row order."""
    return list(zip(*values(table)[:5]))


def stack(tables) -> ResultsTable:
    """The tables' rows, one table after another, as one table."""
    return table_of([row for table in tables for row in rows(table)])
