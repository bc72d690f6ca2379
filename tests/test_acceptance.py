"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import functools
import math
import random
import time

from samples import (
    BITS58,
    DEL_BOUNDS,
    LOUDS21,
    TREE10,
    del_borrow_sample,
    del_merge_sample,
)
from succinct import BitVector, SizeBounds, dump, louds_encode, with_super_root
from succinct.dynamic import Node as DNode
from succinct.dynamic import ddelete, redblack_check
from succinct.louds import height, number_of_nodes
from succinct.oracle import bfs_queue
from succinct.spec import lo_traversal, lo_traversal_lt, lo_traversal_st, louds_position, mzip
from succinct.verify import ScriptRunner, check_navigation, random_script, random_tree


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number} PASS - {description}")

        return wrapper

    return decorate


@criterion(1, "58-bit fixture rank/select values, under 1 ms")
def test_criterion_1_static_fixture():
    start = time.perf_counter()
    index = BitVector(BITS58)
    queries = (
        index.rank(1, 4),
        index.select(1, 2),
        index.rank(1, 36),
        index.select(1, 17),
        index.rank(1, 58),
        index.select(1, 26),
    )
    elapsed = time.perf_counter() - start
    assert queries == (2, 4, 17, 36, 26, 57)
    assert elapsed < 0.001, f"six queries took {elapsed * 1000:.3f} ms"


@criterion(2, "21-bit encoding fixture and position of path [0,2,1]")
def test_criterion_2_louds_fixture():
    wrapped = with_super_root(TREE10)
    assert louds_encode(wrapped) == LOUDS21
    assert louds_position([wrapped], [0, 2, 1]) == 17


@criterion(3, "size law 2n-1 on 500 random trees up to 2000 nodes, under 5 s")
def test_criterion_3_size_law():
    rng = random.Random(1003)
    start = time.perf_counter()
    for _ in range(500):
        t = random_tree(rng, rng.randint(1, 2000))
        assert len(louds_encode(t)) == 2 * number_of_nodes(t) - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


@criterion(4, "traversal equivalences on 200 random trees")
def test_criterion_4_traversal_equivalences():
    rng = random.Random(1004)
    label = lambda n: n.label
    for _ in range(200):
        t = random_tree(rng, rng.randint(1, 500))
        structural = lo_traversal_st(label, t)
        assert structural == lo_traversal(label, t)
        assert structural == bfs_queue(t)
        path = [rng.randint(0, 3) for _ in range(height(t) + rng.randint(0, 2))]
        assert lo_traversal_lt(label, [t], path) == structural


@criterion(5, "navigation matches the tree oracle at every node of 100 trees, under 30 s")
def test_criterion_5_navigation():
    rng = random.Random(1005)
    start = time.perf_counter()
    for _ in range(100):
        check_navigation(random_tree(rng, rng.randint(1, 150)))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f} s"


def _dynamic_seeds():
    return [20260000 + k for k in range(1000)]


@criterion(6, "1000 random 200-op scripts, per-op oracle and invariant checks, under 60 s")
def test_criterion_6_dynamic_equivalence():
    bounds = SizeBounds(8, 32)
    start = time.perf_counter()
    for seed in _dynamic_seeds():
        runner = ScriptRunner(bounds, verify=True)
        runner.run(random_script(random.Random(seed), 200))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f} s"


@criterion(7, "deletion base cases at low=3 produce the depicted leaves and shapes")
def test_criterion_7_deletion_base_cases():
    before, after = del_borrow_sample()
    got = ddelete(before, 1, DEL_BOUNDS)
    assert dump(got) == dump(after) and got == after
    assert dump(got).split('"')[1::2] == ["101", "011", "111"]

    before, after = del_merge_sample()
    got = ddelete(before, 1, DEL_BOUNDS)
    assert dump(got) == dump(after) and got == after
    assert dump(got).split('"')[1::2] == ["10101", "1111"]


def _leaf_stats(tree):
    """(max root-to-leaf edge count, leaf count)."""
    deepest = 0
    count = 0
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, DNode):
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
        else:
            count += 1
            deepest = max(deepest, depth)
    return deepest, count


@criterion(8, "path lengths bounded by 2*bh+1 and 2*ceil(log2(leaves+1))+1")
def test_criterion_8_depth_bound():
    bounds = SizeBounds(8, 32)
    for seed in _dynamic_seeds()[:100]:
        runner = ScriptRunner(bounds, verify=False)
        ops = random_script(random.Random(seed), 200)
        for index, op in enumerate(ops):
            runner.step(op)
            if index % 50 == 49 or index == len(ops) - 1:
                bh = redblack_check(runner.tree)
                assert bh is not None
                deepest, leaves = _leaf_stats(runner.tree)
                assert deepest <= 2 * bh + 1
                assert deepest <= 2 * math.ceil(math.log2(leaves + 1)) + 1


@criterion(9, "mzip associativity and identity on 100 random level sequences")
def test_criterion_9_mzip_monoid():
    rng = random.Random(1009)

    def random_levels():
        return [
            [rng.randint(0, 9) for _ in range(rng.randint(0, 4))]
            for _ in range(rng.randint(0, 6))
        ]

    for _ in range(100):
        a, b, c = random_levels(), random_levels(), random_levels()
        assert mzip(mzip(a, b), c) == mzip(a, mzip(b, c))
        assert mzip([], a) == a
        assert mzip(a, []) == a
