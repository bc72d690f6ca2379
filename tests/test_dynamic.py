import copy
import functools
import gc
import math
import pickle
import random
import sys
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from samples import (
    DBV40_FLAT,
    DEL_BOUNDS,
    dbv_sample,
    del_borrow_sample,
    del_merge_sample,
    leaf_of,
    reference_text_bits,
)
from succinct import (
    BitVector,
    DynamicBitVector,
    SizeBounds,
    dump,
    from_bits,
    parse_bits,
    parse_dump,
)
from succinct.dynamic import (
    BLACK,
    DEFAULT_BOUNDS,
    RED,
    Color,
    Leaf,
    Node,
    daccess,
    ddelete,
    dflatten,
    dinsert,
    drank,
    dselect,
    dset,
    dsize,
    redblack_check,
    wf_check,
)
import succinct.dynamic as dynamic_mod
from succinct.dynamic import _ddel, _dins, _fix_left_short, _fix_right_short, _measure, _preorder
from succinct.oracle import delete_at, insert1, oracle_rank, oracle_select, update_at

BOUNDS = SizeBounds(8, 32)
b = parse_bits


def check_state(t, flat, bounds):
    assert dflatten(t) == flat
    assert wf_check(t, bounds)
    assert redblack_check(t) is not None


class TestFlattenAndQueries:
    def test_flatten_sample(self):
        assert dflatten(dbv_sample()) == DBV40_FLAT

    def test_flatten_leaf_is_identity(self):
        assert dflatten(leaf_of(b("0110"))) == b("0110")

    def test_from_bits_roundtrip(self):
        rng = random.Random(11)
        for _ in range(200):
            bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 120))]
            t = from_bits(bits, BOUNDS)
            assert dflatten(t) == bits
            assert wf_check(t, BOUNDS)
            assert redblack_check(t) is not None

    def test_drank_samples(self):
        t = dbv_sample()
        assert drank(t, 20) == 3 == oracle_rank(1, 20, DBV40_FLAT)
        assert drank(t, 0) == 0
        assert drank(t, 40) == 10 == oracle_rank(1, 40, DBV40_FLAT)
        with pytest.raises(ValueError):
            drank(t, -1)

    def test_dselect_samples(self):
        t = dbv_sample()
        assert dselect(t, 1, 3) == oracle_select(1, 3, DBV40_FLAT) == 14
        assert dselect(t, 0, 0) == 0
        assert dsize(t) == 40

    def test_dselect_past_count_gives_size_plus_one(self):
        t = dbv_sample()
        assert dselect(t, 1, 11) == 41
        assert dselect(t, 0, 31) == 41

    def test_daccess(self):
        t = dbv_sample()
        for i in (0, 6, 13, 39):
            assert daccess(t, i) == DBV40_FLAT[i]
        with pytest.raises(IndexError):
            daccess(t, 40)

    def test_queries_match_oracle_on_random_trees(self):
        rng = random.Random(3)
        for _ in range(60):
            flat = [rng.randint(0, 1) for _ in range(rng.randint(0, 90))]
            t = from_bits(flat, BOUNDS)
            for i in range(len(flat) + 2):
                assert drank(t, i) == oracle_rank(1, i, flat)
            for k in range(len(flat) + 2):
                assert dselect(t, 0, k) == oracle_select(0, k, flat)
                assert dselect(t, 1, k) == oracle_select(1, k, flat)

    def test_dselect_in_leaves_above_65536_bits(self):
        """The in-leaf halving needs steps wider than 2^16 here."""
        rng = random.Random(41)
        bounds = SizeBounds(70_000, 140_000)
        flat = [rng.getrandbits(1) for _ in range(200_000)]
        t = from_bits(flat, bounds)
        assert isinstance(t, Node) and wf_check(t, bounds)
        assert min(t.left.length, t.right.length) > 65_536
        for b in (0, 1):
            count = flat.count(b)
            ordinals = [0, 1, count, count + 1, *rng.sample(range(2, count), 20)]
            for k in ordinals:
                assert dselect(t, b, k) == oracle_select(b, k, flat), (b, k)
            with pytest.raises(ValueError):
                dselect(t, b, -1)

    @pytest.mark.parametrize("shape", ["random", "blocks", "sparse"])
    def test_dselect_every_ordinal_at_default_bounds(self, shape):
        """A leaf's select looks first in a window where the mean spacing
        of its bits puts the i-th: random bits land in it; 2048-bit
        blocks of 0s and 1s fall both before and after it, as do sparse
        1s.  The last leaf lies on the right spine, where the count is
        taken from the leaf itself."""
        rng = random.Random(shape)
        n = 3 * DEFAULT_BOUNDS.high
        if shape == "random":
            flat = [rng.getrandbits(1) for _ in range(n)]
        elif shape == "sparse":
            flat = [int(rng.random() < 0.02) for _ in range(n)]
        else:
            flat = [j // 2048 & 1 for j in range(n)]
        t = from_bits(flat, DEFAULT_BOUNDS)
        assert isinstance(t, Node)
        for b in (0, 1):
            where = [j + 1 for j, x in enumerate(flat) if x == b]
            assert [dselect(t, b, k) for k in range(len(where) + 3)] == [0, *where, n + 1, n + 1]


class TestWellFormedness:
    def test_sample_is_strictly_wf(self):
        assert wf_check(dbv_sample(), SizeBounds(8, 17))

    def test_wrong_num_is_rejected(self):
        t = dbv_sample()
        corrupt = Node(t.color, t.left, t.num + 1, t.ones, t.right)
        assert not wf_check(corrupt, SizeBounds(8, 17))

    def test_wrong_ones_is_rejected(self):
        t = dbv_sample()
        corrupt = Node(t.color, t.left, t.num, t.ones - 1, t.right)
        assert not wf_check(corrupt, SizeBounds(8, 17))

    def test_admits_small_root_leaf(self):
        assert wf_check(leaf_of([1]), BOUNDS)
        assert wf_check(leaf_of([]), BOUNDS)
        assert not wf_check(leaf_of([0] * BOUNDS.high), BOUNDS)

    def test_only_a_root_leaf_may_be_short(self):
        short, full = leaf_of([1]), leaf_of([0] * BOUNDS.low)
        assert wf_check(Node(BLACK, full, BOUNDS.low, 0, full), BOUNDS)
        assert not wf_check(Node(BLACK, short, 1, 1, full), BOUNDS)
        assert not wf_check(Node(BLACK, full, BOUNDS.low, 0, short), BOUNDS)
        rng = random.Random(17)
        for _ in range(50):
            bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 80))]
            t = from_bits(bits, BOUNDS)
            assert wf_check(t, BOUNDS)
            # below a node every leaf keeps the full window
            low = 0 if isinstance(t, Leaf) else BOUNDS.low
            assert _measure(t, low, BOUNDS.high)[0]

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            SizeBounds(0, 10)
        with pytest.raises(ValueError):
            SizeBounds(8, 15)
        assert SizeBounds.from_w(8) == SizeBounds(32, 128)
        with pytest.raises(ValueError):
            SizeBounds.from_w(1)

    def test_bounds_must_be_ints(self):
        # a float bound would fail deep in from_bits, or pass for some sizes
        for low, high in ((8, 32.5), (8.0, 32)):
            with pytest.raises(TypeError):
                SizeBounds(low, high)
        with pytest.raises(TypeError):
            SizeBounds.from_w(8.0)
        assert SizeBounds(True, 2) == SizeBounds(1, 2)


class TestRedblackCheck:
    def test_sample_black_height(self):
        assert redblack_check(dbv_sample()) == 2

    def test_rejects_red_red(self):
        inner = Node(RED, leaf_of(b("1")), 1, 1, leaf_of(b("0")))
        t = Node(RED, inner, 2, 1, leaf_of(b("0")))
        assert redblack_check(t, context=Color.BLACK) is None

    def test_red_root_invalid_under_red_context(self):
        t = Node(RED, leaf_of(b("1")), 1, 1, leaf_of(b("0")))
        assert redblack_check(t) is None
        assert redblack_check(t, context=Color.BLACK) == 0

    def test_rejects_uneven_black_height(self):
        deep = Node(BLACK, leaf_of(b("1")), 1, 1, leaf_of(b("0")))
        t = Node(BLACK, deep, 2, 1, leaf_of(b("0")))
        assert redblack_check(t) is None


class TestInsert:
    def test_leaf_split_keeps_red_below_root_paint(self):
        # the raw insert splits a full leaf into a red node ...
        raw = _dins(leaf_of(b("101")), 1, 3, SizeBounds(2, 4))
        assert raw == Node(RED, leaf_of(b("10")), 2, 1, leaf_of(b("11")))
        # ... and the public wrapper then paints the root black
        t = dinsert(leaf_of(b("101")), 1, 3, SizeBounds(2, 4))
        assert t == Node(BLACK, leaf_of(b("10")), 2, 1, leaf_of(b("11")))
        assert dflatten(t) == b("1011")

    def test_no_split_below_threshold(self):
        assert dinsert(leaf_of(b("10")), 1, 1, SizeBounds(4, 8)) == leaf_of(b("110"))

    def test_insert_position_out_of_range(self):
        with pytest.raises(IndexError):
            dinsert(leaf_of(b("10")), 1, 3, BOUNDS)

    def test_random_insert_sequences_match_oracle(self):
        # tight bounds force frequent splits and rebalances
        rng = random.Random(29)
        bounds = SizeBounds(4, 8)
        for _ in range(1000):
            t, flat = leaf_of([]), []
            for _ in range(rng.randint(1, 48)):
                i = rng.randint(0, len(flat))
                bit = rng.randint(0, 1)
                t = dinsert(t, bit, i, bounds)
                flat = insert1(flat, bit, i)
                check_state(t, flat, bounds)


class TestSetClear:
    def test_set_then_access(self):
        t = from_bits(b("0000000000"), BOUNDS)
        t2 = dset(t, 1, 7)
        assert t2 is not t and daccess(t2, 7) == 1

    def test_set_is_idempotent_and_preserves_identity(self):
        """At every index of a multi-leaf tree and of a root leaf, an update
        returns its input itself exactly when the bit already holds the
        value, and the vector's set/clear report False exactly then."""
        bounds = SizeBounds(3, 8)
        for bits, root_is_leaf in ((b("10011010111000101101"), False), (b("0110"), True)):
            t = from_bits(bits, bounds)
            assert isinstance(t, Leaf) is root_is_leaf
            for i, bit in enumerate(bits):
                for method, value in (("set", 1), ("clear", 0)):
                    assert (dset(t, value, i) is t) == (bit == value), (value, i)
                    vec = DynamicBitVector(bits, bounds=bounds)
                    assert getattr(vec, method)(i) == (bit != value), (method, i)
                    assert vec.to_bits() == update_at(bits, i, value)

    def test_random_set_clear_match_oracle(self):
        rng = random.Random(31)
        for _ in range(500):
            flat = [rng.randint(0, 1) for _ in range(rng.randint(1, 80))]
            t = from_bits(flat, BOUNDS)
            i = rng.randrange(len(flat))
            bit = int(rng.random() < 0.5)
            t = dset(t, bit, i)
            flat = update_at(flat, i, bit)
            check_state(t, flat, BOUNDS)

    def test_shape_and_colors_unchanged(self):
        t = from_bits([0] * 60, BOUNDS)

        def shape(node):
            if isinstance(node, Leaf):
                return ("leaf", node.length)
            return (node.color, shape(node.left), shape(node.right))

        assert shape(dset(t, 1, 33)) == shape(t)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            dset(leaf_of(b("10")), 1, 2)
        with pytest.raises(IndexError):
            dset(leaf_of([]), 0, 0)


class TestDelete:
    def test_borrow_through_red_sibling(self):
        before, after = del_borrow_sample()
        assert ddelete(before, 1, DEL_BOUNDS) == after

    def test_merge_through_red_sibling(self):
        before, after = del_merge_sample()
        assert ddelete(before, 1, DEL_BOUNDS) == after

    def test_borrow_dump_shape(self):
        before, _ = del_borrow_sample()
        assert dump(ddelete(before, 1, DEL_BOUNDS)) == "\n".join(
            [
                "(Black num=6 ones=4",
                "  (Red num=3 ones=2",
                '    (leaf "101")',
                '    (leaf "011"))',
                '  (leaf "111"))',
            ]
        )

    def test_merge_dump_shape(self):
        before, _ = del_merge_sample()
        assert dump(ddelete(before, 1, DEL_BOUNDS)) == "\n".join(
            [
                "(Black num=5 ones=3",
                '  (leaf "10101")',
                '  (leaf "1111"))',
            ]
        )

    def test_right_borrow_through_red_sibling_mirrors_the_left(self):
        # the short right leaf borrows the last bit of the red sibling's
        # right leaf; the red node moves down to the right, as on the left
        before = Node(
            BLACK, Node(RED, leaf_of(b("111")), 3, 3, leaf_of(b("1101"))), 7, 6, leaf_of(b("001"))
        )
        got = ddelete(before, 8, DEL_BOUNDS)
        assert dump(got) == "\n".join(
            [
                "(Black num=3 ones=3",
                '  (leaf "111")',
                "  (Red num=3 ones=2",
                '    (leaf "110")',
                '    (leaf "101")))',
            ]
        )
        check_state(got, b("111110101"), DEL_BOUNDS)

    def test_delete_to_empty_leaf(self):
        t = from_bits(b("1"), BOUNDS)
        assert ddelete(t, 0, BOUNDS) == leaf_of([])

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            ddelete(leaf_of(b("1")), 1, BOUNDS)

    def test_random_interleaved_sequences_match_oracle(self):
        rng = random.Random(37)
        bounds = SizeBounds(3, 8)
        for _ in range(1000):
            t, flat = leaf_of([]), []
            for _ in range(rng.randint(1, 30)):
                if flat and rng.random() < 0.45:
                    i = rng.randrange(len(flat))
                    t = ddelete(t, i, bounds)
                    flat = delete_at(flat, i)
                else:
                    i = rng.randint(0, len(flat))
                    bit = rng.randint(0, 1)
                    t = dinsert(t, bit, i, bounds)
                    flat = insert1(flat, bit, i)
                check_state(t, flat, bounds)

    def test_drain_large_tree(self):
        rng = random.Random(41)
        bounds = SizeBounds(3, 8)
        flat = [rng.randint(0, 1) for _ in range(300)]
        t = from_bits(flat, bounds)
        while flat:
            i = rng.randrange(len(flat))
            t = ddelete(t, i, bounds)
            flat = delete_at(flat, i)
            check_state(t, flat, bounds)
        assert t == leaf_of([])


def _random_redblack(rng, bh, context, low, high):
    """Random red-black tree with exact black height under the given context."""
    if bh == 0:
        if context is BLACK and rng.random() < 0.4:
            left = _random_redblack(rng, 0, RED, low, high)
            right = _random_redblack(rng, 0, RED, low, high)
            return Node(RED, left, dsize(left), dflatten(left).count(1), right)
        return leaf_of([rng.randint(0, 1) for _ in range(rng.randint(low, high - 1))])
    color = BLACK if context is RED or rng.random() < 0.6 else RED
    child_bh = bh - 1 if color is BLACK else bh
    child_ctx = color
    left = _random_redblack(rng, child_bh, child_ctx, low, high)
    right = _random_redblack(rng, child_bh, child_ctx, low, high)
    return Node(color, left, dsize(left), dflatten(left).count(1), right)


class TestDeletedBalance:
    """The rebuild helpers must preserve contents and the deleted-red-black
    accounting across every rotation case."""

    def test_no_down_builds_plain_node(self):
        # the left leaf keeps more than low bits, so nothing drops and the
        # black root is rebuilt as a plain node over the new left subtree
        inner = Node(RED, leaf_of(b("1010")), 4, 2, leaf_of(b("0011")))
        t = Node(BLACK, inner, 8, 4, leaf_of(b("1111")))
        tree, down, bit = _ddel(t, 0, 3)
        assert tree == Node(
            BLACK, Node(RED, leaf_of(b("010")), 3, 1, leaf_of(b("0011"))), 7, 3, leaf_of(b("1111"))
        )
        assert (down, bit) == (False, 1)

    @pytest.mark.parametrize("parent_color", [RED, BLACK])
    def test_left_short_cases(self, parent_color):
        rng = random.Random(53)
        low, high = 3, 8
        for _ in range(300):
            bh = rng.randint(1, 2)
            if parent_color is RED:
                short = _random_redblack(rng, bh - 1, RED, low, high)
                sibling = _random_redblack(rng, bh, RED, low, high)
            else:
                short = _random_redblack(rng, bh - 1, RED, low, high)
                sibling = _random_redblack(rng, bh, BLACK, low, high)
            num, ones = dsize(short), dflatten(short).count(1)
            tree, down = _fix_left_short(parent_color, short, num, ones, sibling, low)
            assert dflatten(tree) == dflatten(short) + dflatten(sibling)
            # a black node's rebuild stays valid in any context; a red
            # node's rebuild is valid under its (black) parent; a drop
            # leaves a tree one black level shorter, valid under red
            expected_bh = bh + (1 if parent_color is BLACK else 0)
            context = RED if parent_color is BLACK else BLACK
            assert redblack_check(tree, RED if down else context) == expected_bh - down
            assert wf_check(tree, SizeBounds(low, high))
        # a leaf one bit under low beside a leaf, or beside a red node
        # over two leaves under a black parent: only merging two leaves
        # under a black parent drops a level
        for _ in range(100):
            short = leaf_of([rng.randint(0, 1) for _ in range(low - 1)])
            sibling = _random_redblack(rng, 0, parent_color, low, high)
            num, ones = dsize(short), dflatten(short).count(1)
            tree, down = _fix_left_short(parent_color, short, num, ones, sibling, low)
            assert dflatten(tree) == dflatten(short) + dflatten(sibling)
            merged = isinstance(sibling, Leaf) and sibling.length == low
            assert down == (merged and parent_color is BLACK)
            context = RED if parent_color is BLACK else BLACK
            assert redblack_check(tree, RED if down else context) == (parent_color is BLACK) - down
            assert wf_check(tree, SizeBounds(low, high))

    @pytest.mark.parametrize("parent_color", [RED, BLACK])
    def test_right_short_cases(self, parent_color):
        rng = random.Random(59)
        low, high = 3, 8
        for _ in range(300):
            bh = rng.randint(1, 2)
            context = RED if parent_color is RED else BLACK
            sibling = _random_redblack(rng, bh, context, low, high)
            short = _random_redblack(rng, bh - 1, RED, low, high)
            num, ones = dsize(sibling), dflatten(sibling).count(1)
            tree, down = _fix_right_short(parent_color, sibling, num, ones, short, low)
            assert dflatten(tree) == dflatten(sibling) + dflatten(short)
            expected_bh = bh + (1 if parent_color is BLACK else 0)
            context = RED if parent_color is BLACK else BLACK
            assert redblack_check(tree, RED if down else context) == expected_bh - down
            assert wf_check(tree, SizeBounds(low, high))
        for _ in range(100):
            short = leaf_of([rng.randint(0, 1) for _ in range(low - 1)])
            sibling = _random_redblack(rng, 0, parent_color, low, high)
            num, ones = dsize(sibling), dflatten(sibling).count(1)
            tree, down = _fix_right_short(parent_color, sibling, num, ones, short, low)
            assert dflatten(tree) == dflatten(sibling) + dflatten(short)
            merged = isinstance(sibling, Leaf) and sibling.length == low
            assert down == (merged and parent_color is BLACK)
            context = RED if parent_color is BLACK else BLACK
            assert redblack_check(tree, RED if down else context) == (parent_color is BLACK) - down
            assert wf_check(tree, SizeBounds(low, high))

    @pytest.mark.parametrize("parent_color", [RED, BLACK])
    def test_two_red_nephews_rotate_the_outer_one(self, parent_color):
        # a black sibling with two red children: the outer one (rr on the
        # right, ll on the left) takes the single rotation, and the inner
        # one moves across still red
        a, c, d, e = (leaf_of(b(s)) for s in ("110", "001", "010", "111"))
        inner = Node(RED, a, 3, 2, c)
        outer = Node(RED, d, 3, 1, e)
        short = leaf_of(b("1000"))

        sibling = Node(BLACK, inner, 6, 3, outer)
        tree, down = _fix_left_short(parent_color, short, 4, 1, sibling, 3)
        assert tree == Node(
            parent_color, Node(BLACK, short, 4, 1, inner), 10, 4, Node(BLACK, d, 3, 1, e)
        )
        assert down is False

        sibling = Node(BLACK, outer, 6, 4, inner)
        tree, down = _fix_right_short(parent_color, sibling, 12, 7, short, 3)
        assert tree == Node(
            parent_color, Node(BLACK, d, 3, 1, e), 6, 4, Node(BLACK, inner, 6, 3, short)
        )
        assert down is False

    def test_ddel_reports_deleted_bit(self):
        t = from_bits(b("10110"), SizeBounds(2, 4))
        assert _ddel(t, 2, 2)[2] == 1
        assert _ddel(t, 1, 2)[2] == 0


class TestDepthBound:
    def test_paths_bounded_by_black_height(self):
        rng = random.Random(61)
        for _ in range(30):
            bits = [rng.randint(0, 1) for _ in range(rng.randint(1, 400))]
            t = from_bits(bits, BOUNDS)
            bh = redblack_check(t)
            assert bh is not None

            def depths(node, d=0):
                if isinstance(node, Leaf):
                    yield d
                else:
                    yield from depths(node.left, d + 1)
                    yield from depths(node.right, d + 1)

            def count_leaves(node):
                if isinstance(node, Leaf):
                    return 1
                return count_leaves(node.left) + count_leaves(node.right)

            deepest = max(depths(t))
            leaves = count_leaves(t)
            assert deepest <= 2 * bh + 1
            assert deepest <= 2 * math.ceil(math.log2(leaves + 1)) + 1


class TestDumpFormat:
    def test_roundtrip(self):
        rng = random.Random(67)
        for _ in range(40):
            bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 120))]
            t = from_bits(bits, SizeBounds(3, 8))
            assert parse_dump(dump(t)) == t

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_dump("(Purple num=1 ones=1 (leaf) (leaf))")
        with pytest.raises(ValueError):
            parse_dump("")
        with pytest.raises(ValueError):
            parse_dump('(leaf "01") junk')
        with pytest.raises(ValueError, match="invalid bit character '2'"):
            parse_dump('(leaf "0121")')
        with pytest.raises(ValueError):
            parse_dump('(Black num=1 ones=0 (leaf "0")')

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("(Purple num=1 ones=1 (leaf) (leaf))", 1, 1),  # unknown color
            ('(Black num=1\n  (leaf "1") (leaf "0"))', 1, 1),  # no ones=
            ('(Black num=5x ones=1 (leaf "1") (leaf "0"))', 1, 1),  # num not an int
            ('(Black num=1 ones=1\n  (leaf "1"))', 2, 13),  # one child
            ('(Red num=1 ones=1 (leaf "1") (leaf "0") (leaf))', 1, 41),  # three children
            ('(Black num=1 ones=1 (leaf "1")\n  (leaf "01))', 2, 3),  # unterminated quote
            ('(Black num=1 ones=1 (leaf "1") x (leaf "0"))', 1, 32),  # junk between nodes
            ('(Black num=1 ones=1\n  (leaf "1") (leaf "0")', 2, 24),  # unclosed node
            ('(leaf "1")\n(leaf "0")', 2, 1),  # two roots
            ('(Red num=1 ones=1\n  (leaf "1") (leaf "0 2"))', 2, 14),  # a bad bit
            ("\n  ", 2, 3),  # no tree at all
        ],
    )
    def test_rejection_names_line_and_column(self, text, line, column):
        with pytest.raises(ValueError, match=rf"\(line {line}, column {column}\)$"):
            parse_dump(text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 1), max_size=40),
        st.sampled_from([SizeBounds(1, 4), SizeBounds(3, 8)]),
        st.lists(
            st.tuples(
                st.integers(0, 10**4),
                st.integers(0, 6),
                st.sampled_from(["", " ", "\n", "(", ")", '"', "0", "2", "x", "-", "leaf",
                                 "(leaf)", "Red", "Black", "num=1", "ones=0 ", "\u2003"])
                | st.text(max_size=3),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_mutated_dump_rereads_or_raises_value_error(self, bits, bounds, edits):
        text = dump(from_bits(bits, bounds))
        for at, cut, piece in edits:
            at %= len(text) + 1
            text = text[:at] + piece + text[at + cut :]
        try:
            t = parse_dump(text)
        except ValueError:
            return
        assert parse_dump(dump(t)) == t

    @pytest.mark.parametrize("leaf", ["0 2", "01\udcff", "1\x00", "\xe91", "\u20281x",
                                      "0\t1\xa02", "1" * 3000 + "x", "\n\n01\n2"],
                             ids=range(8))
    def test_bad_leaf_is_reported_as_by_the_reference_scan(self, monkeypatch, leaf):
        text = f'(Red num=1 ones=1\n  (leaf "1")\n  (leaf "{leaf}"))'
        with pytest.raises(ValueError) as got:
            parse_dump(text)
        monkeypatch.setattr(dynamic_mod, "_text_bits", reference_text_bits)
        with pytest.raises(ValueError) as want:
            parse_dump(text)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith("in tree dump leaf (line 3, column 3)")

    def test_trailing_whitespace_reads_in_linear_time(self):
        # a scanner that tries a token at every trailing whitespace
        # character takes seconds here
        text = dump(from_bits([1, 0, 1] * 50, SizeBounds(3, 8))) + " " * 20_000 + "\n" * 20_000
        start = time.perf_counter()
        assert dflatten(parse_dump(text)) == [1, 0, 1] * 50
        assert time.perf_counter() - start < 1.0

    def test_leaf_text_is_index_order(self):
        t = Node(BLACK, Leaf(0b110 | 1 << 3), 3, 2, Leaf(1))
        assert dump(t) == '(Black num=3 ones=2\n  (leaf "011")\n  (leaf ""))'
        assert parse_dump(dump(t)) == t
        assert parse_dump('(leaf "01 1")') == leaf_of([0, 1, 1])
        assert parse_dump("(leaf)") == leaf_of([])

    def test_deep_dump_round_trips(self):
        # deeper than the default recursion limit; dump indents every level
        # by two more spaces, so its text grows with the square of the depth
        depth = 3000
        fixture = '(Black num=1 ones=1 (leaf "1") ' * depth + '(leaf "1")' + ")" * depth
        text = "\n".join(
            [f'{"  " * d}(Black num=1 ones=1\n{"  " * (d + 1)}(leaf "1")' for d in range(depth)]
            + ["  " * depth + '(leaf "1")' + ")" * depth]
        )
        assert dump(parse_dump(fixture)) == text
        assert dump(parse_dump(text)) == text

    def test_deep_node_compares_hashes_and_prints(self):
        # a chain deeper than the recursion limit: Node's ==, hash, repr,
        # pickling and copying must walk it without recursing
        depth = 3000
        text = '(Black num=1 ones=1 (leaf "1") ' * depth + '(leaf "1")' + ")" * depth
        a, b = parse_dump(text), parse_dump(text)
        assert wf_check(a, SizeBounds(1, 2)) and redblack_check(a) is None
        assert a == b and hash(a) == hash(b)
        # only the deepest leaf is followed by a ')'
        assert a != parse_dump(text.replace('(leaf "1"))', '(leaf "0"))'))
        assert repr(a).startswith("<Node in preorder: ((<Color.BLACK: 'Black'>, 1, 1), Leaf(")
        for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert copied is not a and copied == a and hash(copied) == hash(a)
            assert dsize(copied) == depth + 1 and redblack_check(copied) is None

    def test_ten_thousand_deep_dump_parses_and_checks(self):
        depth = 10_000
        text = '(Black num=1 ones=1 (leaf "1") ' * depth + '(leaf "1")' + ")" * depth
        t = parse_dump(text)
        assert dsize(t) == depth + 1
        assert wf_check(t, SizeBounds(1, 4))
        assert redblack_check(t) is None


class TestFacade:
    def test_basic_session(self):
        vec = DynamicBitVector(bounds=BOUNDS)
        vec.insert(0, 1)
        vec.insert(1, 0)
        assert vec.rank(2) == 1
        assert vec.select1(1) == 1
        assert vec.select0(1) == 2
        assert vec.access(0) == 1
        assert len(vec) == 2
        vec.set(1)
        assert vec.to_bits() == [1, 1]
        vec.clear(0)
        vec.delete(0)
        assert vec.to_bits() == [1]

    def test_initial_contents(self):
        vec = DynamicBitVector(parse_bits("1001"), bounds=BOUNDS)
        assert vec.to_bits() == b("1001")
        assert "leaf" in vec.dump()

    def test_default_bounds_follow_word_parameter(self):
        vec = DynamicBitVector()
        assert vec.bounds == SizeBounds(2048, 8192) == SizeBounds.from_w(64)


@st.composite
def op_batches(draw):
    n = draw(st.integers(0, 50))
    rng = random.Random(draw(st.integers(0, 2**30)))
    ops = []
    size = 0
    for _ in range(n):
        if size == 0 or rng.random() < 0.5:
            ops.append(("insert", rng.randint(0, size), rng.randint(0, 1)))
            size += 1
        else:
            ops.append(("delete", rng.randrange(size)))
            size -= 1
    return ops


@settings(max_examples=60, deadline=None)
@given(op_batches())
def test_update_sequences_preserve_all_invariants(ops):
    bounds = SizeBounds(3, 8)
    t, flat = leaf_of([]), []
    for op in ops:
        if op[0] == "insert":
            t = dinsert(t, op[2], op[1], bounds)
            flat = insert1(flat, op[2], op[1])
        else:
            t = ddelete(t, op[1], bounds)
            flat = delete_at(flat, op[1])
        check_state(t, flat, bounds)


# ---------------------------------------------------------------------------
# persistence: every update builds a new tree and leaves the old one as it was

PERSISTENT_BOUNDS = [SizeBounds(1, 2), SizeBounds(3, 8), SizeBounds(8, 32)]


@st.composite
def write_scripts(draw):
    """Starting bits and a script of (op, index, bit) writes, each valid
    on the bits the ones before it leave; set and clear ignore the bit."""
    bits = draw(st.lists(st.integers(0, 1), max_size=60))
    rng = random.Random(draw(st.integers(0, 2**30)))
    ops, size = [], len(bits)
    for _ in range(draw(st.integers(0, 60))):
        op = rng.choice(("insert", "delete", "set", "clear")) if size else "insert"
        i = rng.randint(0, size) if op == "insert" else rng.randrange(size)
        ops.append((op, i, rng.randint(0, 1)))
        size += {"insert": 1, "delete": -1}.get(op, 0)
    return bits, ops


@pytest.mark.parametrize("bounds", PERSISTENT_BOUNDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(write_scripts())
def test_every_version_outlives_the_writes_after_it(bounds, script):
    bits, ops = script
    versions = [(from_bits(bits, bounds), bits)]
    for op, i, bit in ops:
        t, flat = versions[-1]
        if op == "insert":
            versions.append((dinsert(t, bit, i, bounds), insert1(flat, bit, i)))
        elif op == "delete":
            versions.append((ddelete(t, i, bounds), delete_at(flat, i)))
        else:
            value = 1 if op == "set" else 0
            versions.append((dset(t, value, i), update_at(flat, i, value)))
    for t, flat in versions:
        check_state(t, flat, bounds)


COPIED_BITS = [1, 0, 0, 1] * 20


@pytest.mark.parametrize(
    "op, args, after",
    [
        ("insert", (5, 1), insert1(COPIED_BITS, 1, 5)),
        ("delete", (5,), delete_at(COPIED_BITS, 5)),
        ("set", (2,), update_at(COPIED_BITS, 2, 1)),
        ("clear", (0,), update_at(COPIED_BITS, 0, 0)),
    ],
)
def test_a_copied_vector_is_independent_under_each_write(op, args, after):
    vec = DynamicBitVector(COPIED_BITS, SizeBounds(3, 8))
    for writer in ("copy", "original"):
        twin = copy.copy(vec)
        written, kept = (twin, vec) if writer == "copy" else (vec, twin)
        getattr(written, op)(*args)
        assert written.to_bits() == after and kept.to_bits() == COPIED_BITS


# ---------------------------------------------------------------------------
# node counts: what an update builds, counted by identity


def new_nodes(old, new):
    """The number of nodes and leaves of new that old does not hold, by identity."""
    held = {id(x) for x in _preorder(old)}
    return sum(id(x) not in held for x in _preorder(new))


def path_length(t, i):
    """The internal nodes an update at index i steers through."""
    length = 0
    while isinstance(t, Node):
        t, i, length = (t.left, i, length + 1) if i < t.num else (t.right, i - t.num, length + 1)
    return length


def counted_writes(bounds, seed, steps=3000):
    """(op, old tree, index, new tree) for a random script of writes on
    random bits, growing and shrinking in turns of 250 writes, so that
    leaves fill up to a split and drain down to a merge."""
    rng = random.Random(seed)
    bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 200))]
    t, size = from_bits(bits, bounds), len(bits)
    for step in range(steps):
        more = "insert" if step // 250 % 2 == 0 else "delete"
        op = rng.choice(("insert", "delete", "set", "clear", more)) if size else "insert"
        i = rng.randint(0, size) if op == "insert" else rng.randrange(size)
        if op == "insert":
            new = dinsert(t, rng.randint(0, 1), i, bounds)
        elif op == "delete":
            new = ddelete(t, i, bounds)
        else:
            new = dset(t, 1 if op == "set" else 0, i)
        yield op, t, i, new
        t, size = new, size + {"insert": 1, "delete": -1}.get(op, 0)


def test_new_nodes_counts_by_identity():
    bounds = SizeBounds(3, 8)
    t = from_bits([1, 0] * 20, bounds)
    assert new_nodes(t, t) == 0
    assert new_nodes(t, from_bits([1, 0] * 20, bounds)) == len(_preorder(t))
    assert new_nodes(Leaf(0b101), Leaf(0b101)) == 1  # equal, yet a leaf of its own


@pytest.mark.parametrize("bounds", PERSISTENT_BOUNDS, ids=str)
def test_a_flip_builds_its_search_path_and_one_leaf(bounds):
    """``dset`` rebuilds each node it steers through and the leaf, and
    returns its input when the bit already holds the value."""
    for seed in range(2):
        for op, old, i, new in counted_writes(bounds, seed):
            if op in ("set", "clear"):
                expected = 0 if new is old else path_length(old, i) + 1
                assert new_nodes(old, new) == expected, (op, i)


@pytest.mark.parametrize("bounds", PERSISTENT_BOUNDS, ids=str)
def test_an_insert_or_delete_builds_at_most_a_bound_in_its_path(bounds):
    """An insert builds at most d + 3 nodes and leaves, and a delete at
    most 2 d + 3, where d is the length of its search path.

    Insert: the leaf becomes one leaf, or on a split a red node over two
    leaves (3).  Each of the d nodes above is rebuilt as one node (+1),
    or a black one lifts a red grandchild: ``_lift_*`` builds 3 nodes in
    place of the node, its red child and the red grandchild, and the two
    red ones were built below, since the old tree had no red-red pair
    (+1 again).  Repainting the root replaces the new root (+0).

    Delete: the leaf loses its bit (1).  Above a subtree that is not
    short, each node is rebuilt once (+1).  Above a short one, the
    ``_fix_*_short`` repair builds: a borrow, a node over the joined
    leaf and the lender's rest in place of the short leaf (+2); a merge,
    one leaf in its place (+0); a black sibling's lift, 3 nodes (+3), or
    its repaint, the node and the red sibling (+2); a red sibling, one
    node over one of the repairs before (at most +4).  Only a merge or a
    repaint under a black node leaves the result short, so at most one
    level, the one that ends the shortfall, adds more than 2."""
    worst = {"insert": 0, "delete": 0}
    for seed in range(2):
        for op, old, i, new in counted_writes(bounds, seed):
            if op in worst:
                d = path_length(old, i)
                built = new_nodes(old, new)
                assert built <= (d + 3 if op == "insert" else 2 * d + 3), (op, i, d, built)
                worst[op] = max(worst[op], built - d)
    # the sweep reaches a split, and a repair that builds more than a borrow's
    assert worst["insert"] == 3 and worst["delete"] >= 3


# ---------------------------------------------------------------------------
# packed leaves and the bulk build, against the oracle

EDGE_BOUNDS = SizeBounds(40, 130)
# word edges, and the edges of the leaf window
EDGE_LENGTHS = (0, 1, 63, 64, 65, EDGE_BOUNDS.low - 1, EDGE_BOUNDS.low, EDGE_BOUNDS.high - 1)


@st.composite
def edge_trees(draw):
    """A root leaf, or a black node over two leaves, with leaf lengths at
    word and window edges; returns (tree, flat bits)."""
    lengths = draw(st.lists(st.sampled_from(EDGE_LENGTHS), min_size=1, max_size=2))
    parts = [draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for n in lengths]
    if len(parts) == 1:
        return leaf_of(parts[0]), parts[0]
    left, right = parts
    return Node(BLACK, leaf_of(left), len(left), left.count(1), leaf_of(right)), left + right


@settings(max_examples=80, deadline=None)
@given(edge_trees())
def test_packed_queries_match_oracle(case):
    t, flat = case
    for i in range(len(flat) + 3):
        assert drank(t, i) == oracle_rank(1, i, flat)
        assert dselect(t, 0, i) == oracle_select(0, i, flat)
        assert dselect(t, 1, i) == oracle_select(1, i, flat)
    for i in range(len(flat)):
        assert daccess(t, i) == flat[i]


@settings(max_examples=80, deadline=None)
@given(edge_trees(), st.integers(0, 1))
def test_packed_updates_match_oracle(case, bit):
    t, flat = case
    n = len(flat)
    well_formed = wf_check(t, EDGE_BOUNDS)
    results = []
    for i in {0, n // 2, n}:
        results.append((dinsert(t, bit, i, EDGE_BOUNDS), insert1(flat, bit, i)))
    for i in {0, n // 2, n - 1} if n else ():
        results.append((ddelete(t, i, EDGE_BOUNDS), delete_at(flat, i)))
    for got, want in results:
        assert dflatten(got) == want
        # metadata and leaf words stay exact even below the window
        assert _measure(got, 0, EDGE_BOUNDS.high) == (True, len(want), want.count(1))
        if well_formed:
            check_state(got, want, EDGE_BOUNDS)


def _levels(t):
    """(depth, node) of every node, root first."""
    out, stack = [], [(t, 0)]
    while stack:
        node, depth = stack.pop()
        out.append((depth, node))
        if isinstance(node, Node):
            stack += ((node.right, depth + 1), (node.left, depth + 1))
    return out


@pytest.mark.parametrize("bounds", [SizeBounds(4, 8), SizeBounds(8, 32)])
def test_bulk_build_every_size(bounds, monkeypatch):
    def forbidden(*args):
        raise AssertionError("from_bits called dinsert")

    monkeypatch.setattr(dynamic_mod, "dinsert", forbidden)
    rng = random.Random(bounds.high)
    for n in range(3 * bounds.high + 1):
        bits = [rng.randint(0, 1) for _ in range(n)]
        t = from_bits(bits, bounds)
        assert dflatten(t) == bits
        assert wf_check(t, bounds)
        # strictly well-formed, every leaf in the window, exactly when n >= low
        assert (isinstance(t, Node) or t.length >= bounds.low) == (n >= bounds.low)
        assert redblack_check(t) is not None
        nodes = _levels(t)
        sizes = [node.length for _, node in nodes if isinstance(node, Leaf)]
        assert max(sizes) - min(sizes) <= 1
        # black above depth floor(log2 k), red on the last, partial level
        last = len(sizes).bit_length() - 1
        for depth, node in nodes:
            if isinstance(node, Node):
                assert node.color is (RED if depth == last else BLACK)


def test_leaf_is_a_hashable_frozen_value():
    a = leaf_of([1, 0, 1])
    assert a == Leaf(0b101 | 1 << 3) and hash(a) == hash(Leaf(0b1101))
    assert leaf_of([1, 0]) != leaf_of([1, 0, 0])
    assert len({a, leaf_of([1, 0, 1]), leaf_of([])}) == 2
    assert hash(dbv_sample()) == hash(dbv_sample())
    # one constructor, int's own: pickle and copy take int's defaults too
    assert "__new__" not in vars(Leaf) and "__reduce__" not in vars(Leaf)
    for value in (a, leaf_of([]), dbv_sample()):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copied = pickle.loads(pickle.dumps(value, protocol))
            assert type(copied) is type(value) and copied == value, protocol
    for copied in (copy.copy(a), copy.deepcopy(a)):
        assert type(copied) is Leaf and copied == a and hash(copied) == hash(a)
    # the repr evaluates back to an equal leaf
    rng = random.Random(29)
    for n in (0, 1, 64, 65):
        leaf = leaf_of([rng.getrandbits(1) for _ in range(n)])
        shown = eval(repr(leaf), {"Leaf": Leaf})
        assert type(shown) is Leaf and shown == leaf and shown.length == n
    for name in ("word", "length", "bits"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    with pytest.raises(AttributeError):
        del a.word
    assert not hasattr(a, "__dict__")
    assert (a.word, a.length) == (0b101, 3)


def test_wf_check_rejects_a_leaf_below_one():
    # an int below 1 spells no leaf; -(1 << low) would pass the window
    # and the counts, reading as a low-bit leaf of 0s
    full = leaf_of([0] * BOUNDS.low)
    for value in (0, -1, -(1 << BOUNDS.low)):
        bad = Leaf(value)
        assert not wf_check(bad, BOUNDS)
        assert not wf_check(Node(BLACK, full, BOUNDS.low, 0, bad), BOUNDS)
    assert wf_check(Node(BLACK, full, BOUNDS.low, 0, full), BOUNDS)


def _retained_bytes(root):
    """Bytes of every object reachable from root, each counted once,
    leaving out small ints, None, types and enum members, which the
    interpreter shares."""
    seen, total, stack = set(), 0, [root]
    while stack:
        x = stack.pop()
        shared = type(x) is int and -5 <= x <= 256 or x is None or isinstance(x, (type, Color))
        if id(x) in seen or shared:
            continue
        seen.add(id(x))
        total += sys.getsizeof(x)
        stack += gc.get_referents(x)
    return total


def test_space_is_one_int_per_leaf():
    # a leaf is its int plus the collector's header, and refers only to its class
    rng = random.Random(71)
    leaf = Leaf(rng.getrandbits(5000) | 1 << 5000)
    assert sys.getsizeof(leaf) <= sys.getsizeof(int(leaf)) + 16
    assert gc.get_referents(leaf) == [Leaf]
    n = 10**5
    t = from_bits([rng.getrandbits(1) for _ in range(n)], DEFAULT_BOUNDS)
    assert _retained_bytes(t) / n <= 0.17


class TestBitRule:
    """Every entry point takes the bits BitVector takes: ints equal to 0
    or 1, bools included, and rejects anything else."""

    @pytest.mark.parametrize("bad", [[2], [1, 0, 3], [0, -1]])
    def test_bulk_entry_points_reject_other_values(self, bad):
        with pytest.raises(ValueError):
            BitVector(bad)
        with pytest.raises(ValueError):
            from_bits(bad, BOUNDS)
        with pytest.raises(ValueError):
            DynamicBitVector(bad, bounds=BOUNDS)

    @pytest.mark.parametrize(
        "build",
        [lambda n: from_bits(n, BOUNDS), lambda n: DynamicBitVector(n, bounds=BOUNDS)],
        ids=["from_bits", "DynamicBitVector"],
    )
    def test_bulk_entry_points_reject_an_int(self, build):
        # bytes(n) would read an int as n 0 bytes
        for n in (0, 3, True):
            with pytest.raises(TypeError):
                build(n)

    @pytest.mark.parametrize("bad", [2, -1, 1.0, "1", None])
    def test_dinsert_rejects_other_values(self, bad):
        with pytest.raises(ValueError):
            dinsert(leaf_of([1]), bad, 0, BOUNDS)
        with pytest.raises(ValueError):
            DynamicBitVector([1], bounds=BOUNDS).insert(1, bad)
        with pytest.raises(ValueError):
            dset(leaf_of([1]), bad, 0)

    def test_dselect_takes_the_bit_bitvector_select_takes(self):
        t = from_bits([0, 1, 1, 0] * 5, SizeBounds(1, 2))
        for bad in (2, -1):
            with pytest.raises(ValueError, match="b must be 0 or 1"):
                dselect(t, bad, 1)
            # the bit is checked before the ordinal
            with pytest.raises(ValueError, match="b must be 0 or 1"):
                dselect(t, bad, -1)

    def test_bools_are_bits(self):
        bits = [True, False, True, True]
        assert list(BitVector(bits)) == [1, 0, 1, 1]
        assert from_bits(bits, SizeBounds(1, 2)) == from_bits([1, 0, 1, 1], SizeBounds(1, 2))
        assert DynamicBitVector(bits, bounds=BOUNDS).to_bits() == [1, 0, 1, 1]
        t = dinsert(dinsert(leaf_of([0]), True, 1, BOUNDS), False, 0, BOUNDS)
        assert t == leaf_of([0, 0, 1])
        t = from_bits([1, 0, 1, 1] * 3, SizeBounds(1, 2))
        for k in range(10):
            assert dselect(t, True, k) == dselect(t, 1, k)
            assert dselect(t, False, k) == dselect(t, 0, k)
        for i in range(12):
            assert dset(t, False, i) == dset(t, 0, i)
            assert dset(t, True, i) == dset(t, 1, i)
        assert dset(t, True, 0) is t


# ---------------------------------------------------------------------------
# out-of-range indices: every walk steers an index past either end to the
# end leaf, and the check there raises

LEAF_CHECK_BOUNDS = [SizeBounds(1, 2), SizeBounds(3, 8), DEFAULT_BOUNDS]


def _deep_bits(bounds):
    """Bits whose bulk build has every leaf at depth 3 or more."""
    rng = random.Random(bounds.high)
    bits = [rng.getrandbits(1) for _ in range(8 * bounds.high)]
    depths = [depth for depth, node in _levels(from_bits(bits, bounds)) if isinstance(node, Leaf)]
    assert min(depths) >= 3
    return bits


def _outcome(f, *args):
    """f(*args), or IndexError if it raises one."""
    try:
        return f(*args)
    except IndexError:
        return IndexError


def _flat_access(s, i):
    if not 0 <= i < len(s):
        raise IndexError(f"bit index {i} out of range")
    return s[i]


class TestIndexChecksAtTheLeaf:
    @pytest.mark.parametrize("bounds", LEAF_CHECK_BOUNDS, ids=str)
    def test_free_functions_reject_both_ends(self, bounds):
        t = from_bits(_deep_bits(bounds), bounds)
        n = dsize(t)
        for i in (-1, n + 1):
            with pytest.raises(IndexError):
                dinsert(t, 1, i, bounds)
        for i in (-1, n):
            with pytest.raises(IndexError):
                ddelete(t, i, bounds)
            with pytest.raises(IndexError):
                dset(t, 1, i)
            with pytest.raises(IndexError):
                dset(t, 0, i)
            with pytest.raises(IndexError):
                daccess(t, i)

    @pytest.mark.parametrize("bounds", LEAF_CHECK_BOUNDS, ids=str)
    def test_vector_keeps_its_tree_after_each_error(self, bounds):
        vec = DynamicBitVector(_deep_bits(bounds), bounds=bounds)
        before, n = vec.tree, len(vec)
        calls = [(vec.insert, -1, 1), (vec.insert, n + 1, 1)]
        calls += [(f, i) for f in (vec.delete, vec.set, vec.clear, vec.access) for i in (-1, n)]
        for f, *args in calls:
            with pytest.raises(IndexError):
                f(*args)
            assert vec.tree is before

    def test_bad_index_is_reported_before_bad_bit(self):
        t = from_bits(_deep_bits(BOUNDS), BOUNDS)
        for i in (-1, dsize(t) + 1):
            with pytest.raises(IndexError):
                dinsert(t, 2, i, BOUNDS)
        for i in (-1, dsize(t)):
            with pytest.raises(IndexError):
                dset(t, 2, i)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=120), st.integers(0, 1))
def test_ops_at_every_leaf_edge_match_oracle(bits, bit):
    """Each op at each leaf's first and last offset and one either side,
    the vector's ends included, against the flat operations."""
    bounds = SizeBounds(3, 8)
    t, n = from_bits(bits, bounds), len(bits)
    probes, start = {n + 1}, 0
    for _, node in _levels(t):
        if isinstance(node, Leaf):
            end = start + node.length - 1
            probes |= {start - 1, start, start + 1, end - 1, end, end + 1}
            start += node.length
    for i in sorted(probes):
        for got, want in (
            (_outcome(dinsert, t, bit, i, bounds), _outcome(insert1, bits, bit, i)),
            (_outcome(ddelete, t, i, bounds), _outcome(delete_at, bits, i)),
            (_outcome(dset, t, 1, i), _outcome(update_at, bits, i, 1)),
            (_outcome(dset, t, 0, i), _outcome(update_at, bits, i, 0)),
        ):
            if want is IndexError:
                assert got is IndexError
            else:
                check_state(got, want, bounds)
        assert _outcome(daccess, t, i) == _outcome(_flat_access, bits, i)


# ---------------------------------------------------------------------------
# sentinel leaves: a leaf is the int word | 1 << length, so its edges are
# where the sentinel crosses one of CPython's 30-bit digits or a power of
# two, and the ordinals and offsets beside it

SENTINEL_LENGTHS = [0, 1, 29, 30, 31, 59, 60, 61, 63, 64, 65, 127, 128, 129,
                    DEFAULT_BOUNDS.low - 1, DEFAULT_BOUNDS.low, DEFAULT_BOUNDS.high - 1]


def _sentinel_cases():
    """Random bits at each edge length, and each power of two of 0s and of 1s."""
    rng = random.Random(67)
    cases = [pytest.param([rng.getrandbits(1) for _ in range(n)], id=str(n)) for n in SENTINEL_LENGTHS]
    for n in (64, 2048, 4096, 8192):
        cases += [pytest.param([bit] * n, id=f"{n}x{bit}") for bit in (0, 1)]
    return cases


SENTINEL_CASES = _sentinel_cases()


@pytest.mark.parametrize("bits", SENTINEL_CASES)
def test_sentinel_leaf_queries_match_oracle(bits):
    leaf, n = leaf_of(bits), len(bits)
    word = sum(bit << j for j, bit in enumerate(bits))
    assert leaf == Leaf(word | 1 << n) and int(leaf) == word | 1 << n
    assert (leaf.word, leaf.length, dsize(leaf), dflatten(leaf)) == (word, n, n, bits)
    assert parse_dump(dump(leaf)) == leaf
    for i in sorted({0, 1, n - 1, n, n + 1} - {-1}):
        assert drank(leaf, i) == oracle_rank(1, i, bits), i
    start = time.perf_counter()
    assert drank(leaf, 10**12) == bits.count(1)
    assert time.perf_counter() - start < 0.1
    rng = random.Random(n)
    for bit in (0, 1):
        count = bits.count(bit)
        ordinals = {0, 1, count - 1, count, count + 1, count + 2, 10**12}
        ordinals |= set(rng.sample(range(count + 1), min(count + 1, 16)))
        for k in sorted(ordinals - {-1}):
            assert dselect(leaf, bit, k) == oracle_select(bit, k, bits), (bit, k)
    for i in (-1, 0, n - 1, n, n + 1):
        assert _outcome(daccess, leaf, i) == _outcome(_flat_access, bits, i)


@pytest.mark.parametrize("bits", SENTINEL_CASES)
def test_sentinel_leaf_updates_match_oracle(bits):
    """Each update at -1, 0, the last offset, the length and one past it,
    on the leaf as a lone root; at the default bounds a leaf of high - 1
    bits splits on insertion."""
    leaf, n = leaf_of(bits), len(bits)
    bounds = DEFAULT_BOUNDS if n < DEFAULT_BOUNDS.high else SizeBounds(DEFAULT_BOUNDS.low, 2 * n)
    for i in sorted({-1, 0, n - 1, n, n + 1}):
        for got, want in (
            (_outcome(dinsert, leaf, 0, i, bounds), _outcome(insert1, bits, 0, i)),
            (_outcome(dinsert, leaf, 1, i, bounds), _outcome(insert1, bits, 1, i)),
            (_outcome(ddelete, leaf, i, bounds), _outcome(delete_at, bits, i)),
            (_outcome(dset, leaf, 1, i), _outcome(update_at, bits, i, 1)),
            (_outcome(dset, leaf, 0, i), _outcome(update_at, bits, i, 0)),
        ):
            if want is IndexError:
                assert got is IndexError, i
            else:
                check_state(got, want, bounds)


@pytest.mark.parametrize("bounds", [SizeBounds(30, 61), SizeBounds(32, 64), SizeBounds(64, 129)], ids=str)
def test_splits_borrows_and_merges_across_digit_edges(bounds):
    """Mostly inserts, then mostly deletes, at windows whose splits,
    borrows and merges make leaves of digit-edge and power-of-two lengths."""
    rng = random.Random(bounds.high)
    flat = [rng.getrandbits(1) for _ in range(2 * bounds.high)]
    t, seen = from_bits(flat, bounds), set()
    for step in range(400):
        if not flat or rng.random() < (0.9 if step < 200 else 0.1):
            i, bit = rng.randint(0, len(flat)), rng.getrandbits(1)
            t, flat = dinsert(t, bit, i, bounds), insert1(flat, bit, i)
        else:
            i = rng.randrange(len(flat))
            t, flat = ddelete(t, i, bounds), delete_at(flat, i)
        check_state(t, flat, bounds)
        seen |= {node.length for _, node in _levels(t) if isinstance(node, Leaf)}
        i, k = rng.randint(0, len(flat) + 1), rng.randint(0, len(flat) + 1)
        assert drank(t, i) == oracle_rank(1, i, flat)
        assert dselect(t, 0, k) == oracle_select(0, k, flat)
        assert dselect(t, 1, k) == oracle_select(1, k, flat)
    # a merge of a short leaf with a minimal one, and both split halves
    assert {2 * bounds.low - 1, bounds.high // 2, (bounds.high + 1) // 2} <= seen


# ---------------------------------------------------------------------------
# small-scope exhaustive checks: every small red-black tree, every op at
# every index (Runciman, Naylor & Lindblad, *SmallCheck*, 2008)


@functools.cache
def _rb_shapes(n, height, red_ok):
    """Every red-black shape over n leaves with black height ``height``,
    None for a leaf and (color, left, right) for a node, whose root is
    red only when red_ok.  A leaf has black height 0."""
    shapes = [None] if (n, height) == (1, 0) else []
    for color in (BLACK, RED) if red_ok else (BLACK,):
        below = height - (color is BLACK)
        if below >= 0:
            for k in range(1, n):
                shapes += [(color, left, right) for left in _rb_shapes(k, below, color is BLACK)
                           for right in _rb_shapes(n - k, below, color is BLACK)]
    return tuple(shapes)


def _fill(shape, leaves):
    """(tree, size, ones) of a shape whose leaves come from an iterator."""
    if shape is None:
        leaf = next(leaves)
        return leaf, leaf.length, leaf.word.bit_count()
    color, left, right = shape
    left, num, ones = _fill(left, leaves)
    right, size, ones_r = _fill(right, leaves)
    return Node(color, left, num, ones, right), num + size, ones + ones_r


def _small_trees(most_leaves, lengths):
    """(tree, flat) for every red-black tree with a black root over 1 to
    most_leaves leaves, each leaf of a length in ``lengths``, holding
    alternating bits."""
    for n in range(1, most_leaves + 1):
        for shape in (s for height in range(n.bit_length()) for s in _rb_shapes(n, height, False)):
            for sizes in product(lengths, repeat=n):
                flat = [j & 1 for j in range(sum(sizes))]
                cuts = [sum(sizes[:j]) for j in range(n + 1)]
                leaves = [leaf_of(flat[a:z]) for a, z in zip(cuts, cuts[1:])]
                yield _fill(shape, iter(leaves))[0], flat


def _answers(flat):
    """The oracle's rank at every prefix, and select of each bit at every
    ordinal up to one past its count, of a tuple of bits."""
    ranks = [oracle_rank(1, i, flat) for i in range(len(flat) + 1)]
    selects = ([oracle_select(bit, k, flat) for k in range(flat.count(bit) + 2)] for bit in (0, 1))
    return ranks, *selects


def _check_queries(t, flat, answers):
    ranks, select0, select1 = answers(tuple(flat))
    assert [drank(t, i) for i in range(len(ranks))] == ranks
    assert [dselect(t, 0, k) for k in range(len(select0))] == select0
    assert [dselect(t, 1, k) for k in range(len(select1))] == select1
    assert [daccess(t, i) for i in range(len(flat))] == flat


def _shape(t):
    return t.length if isinstance(t, Leaf) else (t.color, _shape(t.left), _shape(t.right))


@pytest.mark.parametrize(
    "bounds, most_leaves, lengths, count",
    [(SizeBounds(1, 2), 12, (1,), 707), (SizeBounds(2, 4), 5, (2, 3), 182)],
    ids=["1,2", "2,4"],
)
def test_every_small_tree_every_op_every_index(bounds, most_leaves, lengths, count):
    """Insert 0 and 1 at 0..n, and delete and set to 0 and to 1 at
    0..n-1, on every small tree; after each op the flat result, the
    window, the red-black invariant, the change of black height and
    every query agree with the oracle.  At bounds 1,2 a leaf holds one
    bit, so a short leaf always merges; at 2,4 its sibling may lend."""
    seen, answers = 0, functools.cache(_answers)  # many results share their bits
    for t, flat in _small_trees(most_leaves, lengths):
        seen, n, height = seen + 1, len(flat), redblack_check(t)
        assert height is not None and wf_check(t, bounds) and dflatten(t) == flat
        _check_queries(t, flat, answers)
        results = [("insert", dinsert(t, bit, i, bounds), insert1(flat, bit, i))
                   for i in range(n + 1) for bit in (0, 1)]
        results += [("delete", ddelete(t, i, bounds), delete_at(flat, i)) for i in range(n)]
        results += [("set", dset(t, bit, i), update_at(flat, i, bit))
                    for i in range(n) for bit in (0, 1)]
        for op, new, want in results:
            assert dflatten(new) == want and wf_check(new, bounds), (op, flat)
            new_height = redblack_check(new)
            grew = {"insert": (0, 1), "delete": (0, -1), "set": (0,)}[op]
            assert new_height is not None and new_height - height in grew, (op, flat)
            if op == "set":
                assert _shape(new) == _shape(t)
            if new is not t:
                _check_queries(new, want, answers)
    assert seen == count
