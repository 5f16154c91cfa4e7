import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dynheat as dh
from dynheat import reporting
from dynheat.reporting import csv_text

HEADER = ["a", "b", "c", "d"]


def per_cell(header, table):
    """csv_text's per-cell path: the table as a list of row lists."""
    return csv_text(header, [list(row) for row in table])


def usage_message(header, table):
    with pytest.raises(dh.UsageError) as err:
        csv_text(header, table)
    return str(err.value)


class TestCsvTable:
    """A float64 ndarray table takes one finiteness check and tolist(); its
    bytes and its errors are those of the per-cell path."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_float_table_bytes_equal_per_cell(self, order):
        table = np.array([[-0.0, 5e-324, 1e308, 0.1],
                          [1.0, -2.5, 1.0 / 3.0, -1e-300]], order=order)
        text = csv_text(HEADER, table)
        assert text == per_cell(HEADER, table)
        assert text == ("a,b,c,d\n"
                        "-0,4.9406564584124654e-324,1e+308,0.10000000000000001\n"
                        "1,-2.5,0.33333333333333331,-1e-300\n")

    @settings(max_examples=50, deadline=None)
    @given(rows=st.integers(0, 6), cols=st.integers(1, 5), data=st.data())
    def test_finite_tables_equal_per_cell(self, rows, cols, data):
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=rows * cols, max_size=rows * cols))
        table = np.array(values, dtype=float).reshape(rows, cols)
        header = [f"c{j}" for j in range(cols)]
        assert csv_text(header, table) == per_cell(header, table)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_first_non_finite_in_row_order_raises_the_per_cell_message(self, bad, order):
        """(0, 3) comes first in row order, (1, 0) in column order."""
        table = np.ones((2, 4), order=order)
        table[0, 3], table[1, 0] = bad, -bad if np.isinf(bad) else bad
        message = usage_message(HEADER, table)
        assert message == usage_message(HEADER, [list(row) for row in table])
        assert message == f"non-finite value {float(bad)!r} cannot enter a report"

    def test_other_tables_take_the_per_cell_path(self, monkeypatch):
        """Only a 2-D float64 ndarray skips format_float; int, bool and
        object arrays and lists of rows go cell by cell."""
        calls = []
        real = reporting.format_float
        monkeypatch.setattr(reporting, "format_float",
                            lambda x: calls.append(x) or real(x))
        table = np.array([[0.5, 2.0]])
        assert csv_text(["x", "y"], table) == "x,y\n0.5,2\n" and calls == []
        assert csv_text(["x", "y"], table.tolist()) == "x,y\n0.5,2\n" and len(calls) == 2
        assert csv_text(["x"], np.array([[2 ** 60]])) == "x\n1152921504606846976\n"
        assert csv_text(["x", "y"], np.array([[True, False]])) == "x,y\ntrue,false\n"
        assert (csv_text(["x", "y"], np.array([["16", 0.25]], dtype=object))
                == "x,y\n16,0.25\n")
        assert len(calls) == 3
