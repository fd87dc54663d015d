"""Unit tests for the table-reproduction harness."""

import pytest

from rsacf.bench import (
    SUCCESS_BOUND_ROWS,
    bound_table,
    format_bound_table,
    format_success_table,
    success_table,
)


class TestBoundTable:
    def test_reference_rows_exact(self):
        assert bound_table() == [
            (512, 158, 150),
            (768, 222, 224),
            (1024, 286, 299),
            (2048, 542, 598),
        ]

    def test_custom_rows(self):
        assert bound_table((100,)) == [(100, 55, 29)]

    @pytest.mark.parametrize("rows", [(0,), (-4,), (512, 0)])
    def test_rejects_row_below_one(self, rows):
        with pytest.raises(ValueError):
            bound_table(rows)


class TestSuccessTable:
    def test_deterministic(self):
        a = success_table(64, 4, 10, seed=3)
        b = success_table(64, 4, 10, seed=3)
        assert [(r.r_bound_mult, r.s_bound_mult, r.successes) for r in a] == \
               [(r.r_bound_mult, r.s_bound_mult, r.successes) for r in b]

    def test_row_structure(self):
        rows = success_table(64, 2, 5, seed=1)
        assert [(r.r_bound_mult, r.s_bound_mult) for r in rows] == \
               list(SUCCESS_BOUND_ROWS)
        for row in rows:
            assert row.trials == 5
            assert 0 <= row.successes <= row.trials
            assert row.rate == row.successes / row.trials

    def test_wider_bounds_do_better(self):
        rows = {(r.r_bound_mult, r.s_bound_mult): r.successes
                for r in success_table(96, 8, 40, seed=2)}
        assert rows[(4, 4)] >= rows[(2, 2)] >= rows[(1, 1)]

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            success_table(64, 4, 0, seed=0)


class TestFormatting:
    def test_success_format(self):
        rows = success_table(64, 2, 3, seed=0)
        text = format_success_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("r_bound")
        assert len(lines) == 1 + len(SUCCESS_BOUND_ROWS)

    def test_bounds_format(self):
        text = format_bound_table(bound_table())
        assert text.splitlines()[0].startswith("log2_n")
        assert "158" in text and "598" in text
