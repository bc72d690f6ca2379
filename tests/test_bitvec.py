import copy
import itertools
import operator
import pickle
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from samples import BITS58, LOUDS21, reference_ascii_bits, reference_text_bits
from succinct import BitVector, DynamicBitVector, Louds, SizeBounds, format_bits, parse_bits
from succinct import bitvec
from succinct.bitvec import _of_int, _text_bits
from succinct.dynamic import Leaf, dflatten, from_bits
from succinct.oracle import oracle_count, oracle_pred, oracle_rank, oracle_select, oracle_succ
from succinct.verify import random_tree

bit = st.sampled_from([0, 1])
bit_lists = st.lists(bit, max_size=120)
# lengths at and around the 64-bit word edges of BitVector
edge_lengths = st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 193])
edge_lists = edge_lengths.flatmap(
    lambda n: st.integers(0, (1 << n) - 1).map(lambda x: [(x >> j) & 1 for j in range(n)])
)
# 513 to 1100 bits, past at least one 512-bit block edge, drawn as one int
long_lists = st.integers(513, 1100).flatmap(
    lambda n: st.integers(0, (1 << n) - 1).map(lambda x: [(x >> j) & 1 for j in range(n)])
)
# lengths at and around the 512-bit block edges of BitVector's directory
BLOCK_LENGTHS = [511, 512, 513, 1023, 1024, 1025]
# random words, and their ands (about a quarter 1s) and ors (three quarters)
block_lists = st.tuples(
    st.sampled_from(BLOCK_LENGTHS),
    st.integers(0, (1 << 1025) - 1),
    st.integers(0, (1 << 1025) - 1),
    st.sampled_from([lambda x, y: x, operator.and_, operator.or_]),
).map(lambda a: [(a[3](a[1], a[2]) >> j) & 1 for j in range(a[0])])


@st.composite
def one_per_block_lists(draw):
    """A block-edge length with exactly one 1 in each block, anywhere."""
    n = draw(st.sampled_from(BLOCK_LENGTHS))
    s = [0] * n
    for k in range(0, n, 512):
        s[draw(st.integers(k, min(k + 511, n - 1)))] = 1
    return s


class TestRank:
    def test_sample_values(self):
        index = BitVector(BITS58)
        assert index.rank(1, 4) == 2
        assert index.rank(1, 36) == 17
        assert index.rank(1, 58) == 26

    def test_exhaustive_agreement_on_sample(self):
        index = BitVector(BITS58)
        for b in (0, 1):
            for i in range(60):
                assert index.rank(b, i) == oracle_rank(b, i, BITS58)

    def test_empty_source(self):
        index = BitVector([])
        assert index.rank(1, 0) == 0
        assert index.rank(0, 3) == 0

    @given(bit, bit_lists)
    def test_empty_prefix(self, b, s):
        assert BitVector(s).rank(b, 0) == 0

    @given(bit, bit_lists)
    def test_saturates_past_end(self, b, s):
        index = BitVector(s)
        assert index.rank(b, len(s) + 5) == index.rank(b, len(s))

    @given(bit, st.integers(0, 130), bit_lists)
    def test_matches_oracle(self, b, i, s):
        assert BitVector(s).rank(b, i) == oracle_rank(b, i, s)

    @given(bit, bit_lists)
    def test_monotone_with_unit_steps(self, b, s):
        index = BitVector(s)
        previous = 0
        for i in range(1, len(s) + 1):
            current = index.rank(b, i)
            assert current - previous in (0, 1)
            previous = current

    def test_rejects_negative_prefix(self):
        with pytest.raises(ValueError):
            BitVector([1, 0]).rank(1, -1)

    def test_exhaustive_up_to_1024_bits(self):
        rng = random.Random(1024)
        s = [rng.randint(0, 1) for _ in range(1024)]
        index = BitVector(s)
        for b in (0, 1):
            for i in range(len(s) + 1):
                assert index.rank(b, i) == oracle_rank(b, i, s)

    def test_randomized_large_source(self):
        rng = random.Random(2024)
        s = [rng.randint(0, 1) for _ in range(5000)]
        index = BitVector(s)
        for _ in range(500):
            i = rng.randint(0, 5000)
            b = rng.randint(0, 1)
            assert index.rank(b, i) == oracle_rank(b, i, s)

    @given(long_lists)
    def test_block_counts_are_boundary_ranks(self, s):
        # the directory's per-word counts, read back at each word boundary,
        # across at least one 512-bit block edge
        index = BitVector(s)
        for k in range(0, len(s) + 1, 64):
            assert index.rank(1, k) == oracle_rank(1, k, s)


class TestSelect:
    def test_sample_values(self):
        index = BitVector(BITS58)
        assert index.select(1, 2) == 4
        assert index.select(1, 17) == 36
        assert index.select(1, 26) == 57

    def test_missing_occurrence_returns_length_plus_one(self):
        # BITS58 holds 26 ones in total
        assert BitVector(BITS58).select(1, 27) == 59

    @given(bit, bit_lists)
    def test_zeroth_is_zero(self, b, s):
        assert BitVector(s).select(b, 0) == 0

    @given(bit, st.integers(0, 130), bit_lists)
    def test_matches_oracle(self, b, i, s):
        assert BitVector(s).select(b, i) == oracle_select(b, i, s)

    @given(bit, st.integers(0, 40), st.lists(bit, max_size=32))
    def test_is_minimum_prefix_length_with_matching_rank(self, b, i, s):
        n = len(s)
        matches = [k for k in range(n + 1) if oracle_rank(b, k, s) == i]
        expected = min(matches) if matches else n + 1
        assert BitVector(s).select(b, i) == expected

    @given(bit, bit_lists)
    def test_strictly_increasing_up_to_count(self, b, s):
        index = BitVector(s)
        total = oracle_count(b, s)
        values = [index.select(b, i) for i in range(total + 1)]
        assert all(x < y for x, y in zip(values, values[1:]))

    @given(bit, st.integers(1, 130), bit_lists)
    def test_rank_cancels_select(self, b, i, s):
        # rank of the selected prefix gives back the ordinal
        index = BitVector(s)
        if i <= oracle_count(b, s):
            assert index.rank(b, index.select(b, i)) == i

    def test_rejects_negative_ordinal(self):
        with pytest.raises(ValueError):
            BitVector([1]).select(1, -2)


class TestSuccPred:
    def test_succ_sample_values(self):
        index = BitVector(LOUDS21)
        assert index.succ(0, 18) == 19
        assert index.succ(0, 3) == 6

    @given(bit, bit_lists)
    def test_succ_from_one_is_first_occurrence(self, b, s):
        assert BitVector(s).succ(b, 1) == oracle_select(b, 1, s)

    @given(bit, bit_lists, st.integers(1, 130))
    def test_succ_window_has_no_occurrence(self, b, s, y):
        position = BitVector(s).succ(b, y)
        for j in range(y - 1, min(position - 1, len(s))):
            assert s[j] != b
        if position <= len(s):
            assert s[position - 1] == b

    def test_pred_sample_values(self):
        index = BitVector(LOUDS21)
        assert index.pred(0, 1) == 0
        assert index.pred(0, 5) == 2

    @given(bit, bit_lists, st.integers(1, 130))
    def test_pred_at_occurrence_is_identity(self, b, s, y):
        if y <= len(s) and s[y - 1] == b:
            assert BitVector(s).pred(b, y) == y

    @given(bit, bit_lists, st.integers(1, 130))
    def test_pred_window_has_no_occurrence(self, b, s, y):
        position = BitVector(s).pred(b, y)
        if position:
            assert s[position - 1] == b
        for j in range(position, min(y, len(s))):
            assert s[j] != b

    def test_both_index_from_one(self):
        with pytest.raises(ValueError):
            BitVector([0]).succ(0, 0)
        with pytest.raises(ValueError):
            BitVector([0]).pred(0, 0)


class TestBitVector:
    """Differential checks of BitVector against the oracles."""

    @staticmethod
    def assert_matches_oracle(s):
        index = BitVector(s)
        for b in (0, 1):
            for i in range(len(s) + 3):
                assert index.rank(b, i) == oracle_rank(b, i, s), (b, i)
                assert index.select(b, i) == oracle_select(b, i, s), (b, i)
            for y in range(1, len(s) + 4):
                assert index.succ(b, y) == oracle_succ(b, y, s), (b, y)
                assert index.pred(b, y) == oracle_pred(b, y, s), (b, y)
        return index

    @given(edge_lists)
    def test_matches_oracle_near_word_edges(self, s):
        index = self.assert_matches_oracle(s)
        assert len(index) == len(s)
        assert list(index) == s
        assert [index[j] for j in range(len(s))] == s

    @given(bit_lists)
    def test_matches_oracle_on_arbitrary_lists(self, s):
        self.assert_matches_oracle(s)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 127, 128, 129, 320])
    @pytest.mark.parametrize("value", [0, 1])
    def test_constant_inputs(self, n, value):
        self.assert_matches_oracle([value] * n)

    def test_sample_values(self):
        index = BitVector(BITS58)
        assert index.select(1, 2) == 4
        assert index.select(1, 17) == 36
        assert index.select(1, 27) == 59
        assert index.select(0, 0) == 0

    def test_large_random_source(self):
        rng = random.Random(4096)
        s = [rng.randint(0, 1) for _ in range(4096 + 17)]
        index = BitVector(s)
        edges = [k + d for k in range(0, len(s) + 64, 64) for d in (-1, 0, 1)]
        for i in [i for i in edges if i >= 0] + [rng.randint(0, 2100) for _ in range(200)]:
            for b in (0, 1):
                assert index.rank(b, i) == oracle_rank(b, i, s), (b, i)
                assert index.select(b, i) == oracle_select(b, i, s), (b, i)

    def test_equality_and_hash_by_content(self):
        assert BitVector([1, 0, 1]) == BitVector((1, 0, 1))
        assert hash(BitVector([1, 0, 1])) == hash(BitVector((1, 0, 1)))
        assert BitVector([1, 0, 1]) != BitVector([1, 0, 1, 0])
        assert BitVector([0] * 64) != BitVector([0] * 63)

    def test_equality_with_a_list_is_left_to_python(self):
        assert BitVector([0, 1]) != [0, 1]
        assert BitVector([0, 1]).__eq__([0, 1]) is NotImplemented

    @pytest.mark.parametrize("n", [0, 1, 513])
    def test_repr_evaluates_back_to_the_vector(self, n):
        rng = random.Random(n)
        v = BitVector([rng.randint(0, 1) for _ in range(n)])
        assert eval(repr(v), {"BitVector": BitVector, "parse_bits": parse_bits}) == v

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 512, 513, 10**5, 10**6, "Louds"])
    def test_copy_and_pickle_keep_content(self, n):
        # the words and directory are memoryviews, which pickle cannot take
        rng = random.Random(n)
        if n == "Louds":
            value = Louds.encode(random_tree(rng, 3000))
        else:
            value = BitVector([rng.randint(0, 1) for _ in range(n)])
        pickled = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for copied in (copy.copy(value), copy.deepcopy(value), *pickled):
            assert type(copied) is type(value)
            assert copied == value and hash(copied) == hash(value)
        # about one bit per bit: under 130,000 bytes for 10**6 bits
        assert len(pickle.dumps(value)) < len(value) // 8 + 5000

    def test_copy_and_pickle_make_no_bit_text(self, monkeypatch):
        # they rebuild from the length and the int, never from 0/1 text
        values = [BitVector([1, 0, 1] * 300), Louds.encode(random_tree(random.Random(5), 500))]

        def refuse(bits):
            raise AssertionError("a copy spelled its bits as text")

        monkeypatch.setattr(bitvec, "_ascii_bits", refuse)
        for value in values:
            copies = copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
            assert all(copied == value for copied in copies)

    @pytest.mark.parametrize("x", [8, 9, -1])
    def test_unpickling_rejects_bits_past_the_length(self, x):
        # the pickled int of a 3-bit vector is below 2**3
        rebuild, (n, _) = BitVector([1, 0, 1]).__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        assert rebuild is _of_int
        assert rebuild(n, 5) == BitVector([1, 0, 1])
        with pytest.raises(ValueError):
            rebuild(n, x)
        # protocols 0 and 1 pass the int's bytes, little-endian, checked alike
        assert BitVector([1, 0, 1]).__reduce_ex__(0) == (_of_int, (3, b"\x05"))
        with pytest.raises(ValueError):
            rebuild(n, x.to_bytes(2, "little", signed=True))

    @pytest.mark.parametrize(
        "n", [0, 1, 63, 64, 65, 511, 512, 513, *random.Random(28).sample(range(2000), 8)]
    )
    def test_the_one_builder_equals_the_constructor(self, n):
        rng = random.Random(n)
        for x in (0, (1 << n) - 1, rng.getrandbits(n)):
            built = _of_int(n, x)
            assert built == BitVector([x >> j & 1 for j in range(n)])
            assert len(built) == n and list(built) == [x >> j & 1 for j in range(n)]
            assert built.rank(1, n) == x.bit_count()
        for bad in (1 << n, (1 << n) + x, -1, -(1 << n)):
            with pytest.raises(ValueError):
                _of_int(n, bad)

    def test_is_immutable(self):
        index = BitVector([1, 0])
        with pytest.raises(AttributeError):
            index._len = 5
        with pytest.raises(TypeError):
            index._words[0] = 0

    @pytest.mark.parametrize("n", [0, 3, 5, True])
    def test_rejects_an_int(self, n):
        # bytearray(n) would read an int as n 0 bytes
        with pytest.raises(TypeError):
            BitVector(n)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            BitVector([1, 0, 2])
        for i in (2, -1, -2):  # -1 would read a padding bit of the last word
            with pytest.raises(IndexError):
                BitVector([1, 0])[i]
        with pytest.raises(ValueError):
            BitVector([1]).select(1, -1)

    @pytest.mark.parametrize(
        "method, arg", [("rank", 4), ("select", 1), ("succ", 1), ("pred", 4)]
    )
    def test_rejects_a_bit_other_than_0_or_1(self, method, arg):
        # a packed answer for b == 2 would be the one for b == 0, where
        # the definition counts no occurrence at all
        query = getattr(BitVector([0, 1, 1, 0]), method)
        for b in (2, -1):
            with pytest.raises(ValueError, match="b must be 0 or 1"):
                query(b, arg)
        assert query(True, arg) == query(1, arg)
        assert query(False, arg) == query(0, arg)

    def test_succ_pred_past_sparse_words(self):
        # the answer lies several words away from the word holding y
        s = [0] * 300
        s[5] = s[290] = 1
        index = BitVector(s)
        assert index.succ(1, 7) == 291
        assert index.pred(1, 289) == 6
        assert index.succ(1, 292) == 301
        assert index.pred(1, 5) == 0
        assert index.succ(0, 6) == 7 and index.pred(0, 291) == 290

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1000, 4096, 10**5 + 3])
    def test_space_is_ten_bytes_per_word(self, n):
        # the rank9 layout, 80 bytes per 512-bit block: 8 words of 8 bytes,
        # a 1-count and a 0-count of 4 bytes and a packed word of 8 bytes;
        # the two counts and a packed word once more past the end
        index = BitVector([1, 0, 0] * (n // 3) + [1] * (n % 3))
        blocks = -(-n // 512)
        assert index._words.nbytes == 64 * blocks
        assert index._words.nbytes + index._dir.nbytes + index._packed.nbytes == 80 * blocks + 16


def edge_indices(n, rng, sample=16):
    """Every index from 0 to n + 2 within 2 of a word edge, a block edge
    or n, and a sample of the others."""
    near = {k + d for k in [*range(0, n + 1, 64), n] for d in range(-2, 3)}
    near = {i for i in near if 0 <= i <= n + 2}
    others = sorted(set(range(n + 3)) - near)
    return sorted(near.union(rng.sample(others, min(sample, len(others)))))


def assert_matches_oracle_at(s, indices):
    """BitVector against the oracles at those indices: rank at each,
    succ and pred at each 1-based one, and select of the ordinals whose
    answers lie at or just after each, and past the last."""
    index = BitVector(s)
    for b in (0, 1):
        ranks = [oracle_rank(b, i, s) for i in indices]
        assert [index.rank(b, i) for i in indices] == ranks, b
        total = oracle_count(b, s)
        for i in sorted({r + d for r in ranks for d in (0, 1)} | {total, total + 1, total + 2}):
            assert index.select(b, i) == oracle_select(b, i, s), (b, i)
        for y in indices:
            if y:
                assert index.succ(b, y) == oracle_succ(b, y, s), (b, y)
                assert index.pred(b, y) == oracle_pred(b, y, s), (b, y)


class TestBlockEdges:
    """Differential checks at the 512-bit blocks of the directory, where
    the words are padded with 0s that must never be counted or selected."""

    @settings(max_examples=50, deadline=None)
    @given(block_lists, st.randoms(use_true_random=False))
    def test_random_bits(self, s, rng):
        assert_matches_oracle_at(s, edge_indices(len(s), rng))

    @settings(max_examples=25, deadline=None)
    @given(one_per_block_lists(), st.randoms(use_true_random=False))
    def test_one_1_per_block(self, s, rng):
        assert_matches_oracle_at(s, edge_indices(len(s), rng))

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    @pytest.mark.parametrize(
        "shape", ["all 0", "all 1", "1s after the last full block", "0s after the last full block"]
    )
    def test_fixed_shapes(self, n, shape):
        full = n - n % 512
        s = {
            "all 0": [0] * n,
            "all 1": [1] * n,
            "1s after the last full block": [0] * full + [1] * (n - full),
            "0s after the last full block": [1] * full + [0] * (n - full),
        }[shape]
        assert_matches_oracle_at(s, edge_indices(n, random.Random(n)))


def per_character_parse_bits(text):
    """The definition of the ASCII bit format, one character at a time."""
    bits = []
    for offset, ch in enumerate(text):
        if ch == "0":
            bits.append(0)
        elif ch == "1":
            bits.append(1)
        elif not ch.isspace():
            raise ValueError(f"invalid bit character {ch!r} at offset {offset}")
    return bits


def outcome(parse, text):
    """The bits parse reads from text, or the message it raises."""
    try:
        return parse(text)
    except ValueError as e:
        return str(e)


# bits, ASCII and Unicode whitespace, a non-ASCII digit, or any character
bit_text = st.text(
    st.sampled_from("0011 \t\n\r\x0b\x1c\x85\xa0\u2003\u3000x2\u0661") | st.characters()
)


class TestAsciiFormat:
    def test_whitespace_is_ignored(self):
        assert parse_bits("10 01\n11") == [1, 0, 0, 1, 1, 1]

    def test_rejects_other_characters(self):
        with pytest.raises(ValueError, match="offset 2"):
            parse_bits("10x1")

    @given(bit_lists)
    def test_roundtrip(self, s):
        assert parse_bits(format_bits(s)) == s

    def test_format_takes_any_bit_sequence(self):
        assert format_bits([True, False, 1, 0]) == "1010"
        assert format_bits(b"\x01\x00") == format_bits(iter([1, 0])) == "10"
        assert format_bits(BitVector([0, 1, 1])) == "011"
        assert format_bits([]) == ""

    @pytest.mark.parametrize("bad", [[2], [1, 0, 3], [0, -1], [1, 256]])
    def test_format_rejects_other_values(self, bad):
        # as BitVector does: a truthy item other than 1 is no bit
        with pytest.raises(ValueError):
            format_bits(bad)

    def test_format_rejects_an_int(self):
        with pytest.raises(TypeError):
            format_bits(3)

    def test_matches_definition_on_every_character_to_u3000(self):
        # every Unicode whitespace character lies at or below U+3000
        for cp in range(0x3001):
            text = f"1{chr(cp)} 0"
            assert outcome(parse_bits, text) == outcome(per_character_parse_bits, text), cp

    @given(bit_text)
    def test_matches_definition_on_random_text(self, text):
        assert outcome(parse_bits, text) == outcome(per_character_parse_bits, text)

    def test_text_bits_match_the_reference_on_every_short_text(self):
        # bits; ASCII, C0 and Unicode whitespace; stray ASCII, NUL, a
        # Latin-1 letter and the lone surrogate that argv makes of byte 0xff
        alphabet = "01 \t\n\x1c\x1f\xa0\x85\u2028" "2x\0\xe9\udcff"
        for n in range(5):
            for chars in itertools.product(alphabet, repeat=n):
                text = "".join(chars)
                want = outcome(reference_text_bits, text)
                assert outcome(_text_bits, text) == want, text
                want_bits = want if isinstance(want, str) else [c - 48 for c in want]
                assert outcome(parse_bits, text) == want_bits, text

    @pytest.mark.parametrize(
        "text",
        ["01" * 5000, "01" * 5000 + "\udcff", "\udcff" + "10" * 64, "10" * 64 + "\xe9",
         "1" * 63 + "\n0" * 64 + "x"],
        ids=["bits", "surrogate-last", "surrogate-first", "latin1-last", "newlines-then-x"],
    )
    def test_text_bits_match_the_reference_on_long_text(self, text):
        assert outcome(_text_bits, text) == outcome(reference_text_bits, text)


# bit inputs, each made afresh for every read (a generator is spent once
# read), and the exception each raises, or None for one that holds bits
BULK_INPUTS = {
    "int-list": (lambda: [1, 0, 1, 1, 0], None),
    "bool-list": (lambda: [True, False, True], None),
    "tuple": (lambda: (0, 1, 1), None),
    "range": (lambda: range(2), None),
    "generator": (lambda: (b for b in [1, 0, 0, 1]), None),
    "bytes": (lambda: b"\1\0\1", None),
    "bytearray": (lambda: bytearray(b"\0\1"), None),
    "memoryview": (lambda: memoryview(b"\1\1\0"), None),
    "array": (lambda: array("B", [1, 0, 1]), None),
    "long-list": (lambda: random.Random(25).choices([0, 1], k=5000), None),
    "empty-list": (lambda: [], None),
    "empty-bytes": (lambda: b"", None),
    "empty-generator": (lambda: iter(()), None),
    "int": (lambda: 3, TypeError),
    "bool": (lambda: True, TypeError),
    "str": (lambda: "101", TypeError),
    "item-2": (lambda: [1, 2], ValueError),
    "item-minus-1": (lambda: [0, -1], ValueError),
    "item-256": (lambda: [1, 256], ValueError),
    "item-float": (lambda: [1.0], TypeError),
    "item-str": (lambda: ["1"], TypeError),
    "item-none": (lambda: [None], TypeError),
}
# every bulk entry point, each giving the bits it read as a list
BULK_READERS = {
    "BitVector": lambda bits: list(BitVector(bits)),
    "format_bits": lambda bits: parse_bits(format_bits(bits)),
    "Leaf.of": lambda bits: dflatten(Leaf.of(bits)),
    "from_bits": lambda bits: dflatten(from_bits(bits, SizeBounds(2, 4))),
    "DynamicBitVector": lambda bits: DynamicBitVector(bits).to_bits(),
}


def bulk_outcome(read, make):
    """The bits read takes from a fresh input, or the type it raises."""
    try:
        return read(make())
    except (TypeError, ValueError) as e:
        return type(e)


@pytest.mark.parametrize("reader", BULK_READERS)
@pytest.mark.parametrize("name", BULK_INPUTS)
def test_bulk_entry_points_read_bits_as_bytes_did(name, reader):
    # the reference converts with bytes(bits): the entry points must accept
    # and refuse the same inputs, though a refused item's message may differ
    make, error = BULK_INPUTS[name]
    want = bulk_outcome(lambda bits: parse_bits(reference_ascii_bits(bits).decode()), make)
    assert want is error if error else isinstance(want, list)
    assert bulk_outcome(BULK_READERS[reader], make) == want
