from __future__ import annotations

import pytest

from treewalk import ExperimentRow, experiment_table


def test_small_table_with_oracle():
    rows = experiment_table(3)
    assert [r.k for r in rows] == [1, 2, 3]
    assert [r.n for r in rows] == [5, 9, 13]
    assert [r.lower_bound for r in rows] == [0, 4, 12]
    assert [r.walk_bound for r in rows] == [2 * 5 * 4, 2 * 9 * 8, 2 * 13 * 12]
    for r in rows:
        assert r.oracle_distance is not None
        assert r.lower_bound <= r.oracle_distance <= r.walk_moves <= r.walk_bound


def test_oracle_column_respects_cap():
    # Every row is attempted: G_1's search holds at most 6 trees at once and
    # G_2's 31, so a cap of 20 keeps k=1 and drops k=2.
    rows = experiment_table(2, cap=20)
    assert rows[0].oracle_distance is not None
    assert rows[1].oracle_distance is None


def test_oracle_can_be_disabled():
    rows = experiment_table(4, cap=0)
    assert all(r.oracle_distance is None for r in rows)
    assert all(r.lower_bound <= r.walk_moves <= r.walk_bound for r in rows)


def test_table_is_deterministic():
    assert experiment_table(3) == experiment_table(3)


def test_rejects_bad_k_max():
    with pytest.raises(ValueError, match="positive"):
        experiment_table(0)


def test_row_is_a_plain_record():
    row = ExperimentRow(k=1, n=5, lower_bound=0, oracle_distance=4, walk_moves=20, walk_bound=40)
    assert row.k == 1 and row.walk_moves == 20
