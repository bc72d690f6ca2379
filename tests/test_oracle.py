import pytest
from hypothesis import given, strategies as st

from samples import BITS58, LOUDS21, TREE10
from succinct import Tree
from succinct.oracle import (
    bfs_queue,
    delete_at,
    insert1,
    oracle_pred,
    oracle_rank,
    oracle_select,
    oracle_succ,
    update_at,
)

bit = st.sampled_from([0, 1])
bit_lists = st.lists(bit, max_size=60)


def test_rank_sample_values():
    assert oracle_rank(1, 4, BITS58) == 2
    assert oracle_rank(1, 36, BITS58) == 17
    assert oracle_rank(1, 58, BITS58) == 26


def test_select_zeroth_is_zero():
    assert oracle_select(0, 0, BITS58) == 0
    assert oracle_select(1, 0, []) == 0


def test_succ_pred_sample_values():
    assert oracle_succ(0, 18, LOUDS21) == 19
    assert oracle_succ(1, 20, LOUDS21) == 22
    assert oracle_pred(0, 5, LOUDS21) == 2
    assert oracle_pred(0, 1, LOUDS21) == 0
    for query in (oracle_succ, oracle_pred):
        with pytest.raises(ValueError):
            query(0, 0, [0])


def test_sequence_surgery_basics():
    assert insert1([1, 0], 1, 1) == [1, 1, 0]
    assert delete_at([1, 0, 0], 1) == [1, 0]
    assert update_at([1, 0, 0], 2, 1) == [1, 0, 1]


@given(bit_lists, bit, st.integers(0, 60))
def test_delete_undoes_insert(s, b, i):
    if i <= len(s):
        assert delete_at(insert1(s, b, i), i) == s


def test_surgery_range_errors():
    with pytest.raises(IndexError):
        insert1([1], 1, 3)
    with pytest.raises(IndexError):
        delete_at([], 0)
    with pytest.raises(IndexError):
        update_at([1], 1, 0)


def test_bfs_queue_sample():
    assert bfs_queue(TREE10) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]


def test_bfs_queue_single_leaf():
    assert bfs_queue(Tree("x")) == ["x"]

