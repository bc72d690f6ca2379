"""Static bit-sequence primitives: rank, select, succ and pred.

A bit sequence is a Python sequence of 0/1 ints, index 0 first;
``parse_bits``/``format_bits`` convert to the ASCII '0'/'1' form used by
the CLI and by test fixtures.

The index conventions are load-bearing (the navigation formulas in
``louds`` depend on them exactly):

- ``rank(b, i, s)`` takes a 0-based prefix length ``i`` and counts the
  occurrences of ``b`` among the first ``i`` bits; ``i`` past the end
  of the sequence saturates to ``len(s)``.
- ``select(b, i, s)`` returns the position of the ``i``-th occurrence
  of ``b`` counting positions from 1, so ``select(b, i, s) - 1`` is the
  0-based index of that occurrence.  Selecting the 0th occurrence gives
  0, and when fewer than ``i`` occurrences exist the result is
  ``len(s) + 1``.
- ``succ``/``pred`` take a 1-based index and return the 1-based
  position of the next/previous occurrence; both are compositions of
  rank and select.

The free functions are the specification and scan the sequence, so
each costs O(n).  ``BitVector`` answers rank and select with the same
conventions from packed 64-bit words and a directory of 1-counts:
rank in O(1), select in O(log n).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import Sequence

Bit = int
BitSeq = Sequence[int]

__all__ = [
    "Bit",
    "BitSeq",
    "BitVector",
    "format_bits",
    "parse_bits",
    "pred",
    "rank",
    "select",
    "succ",
]

_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")
# (width, mask) of the halving steps that locate a bit within a word
_HALVES = tuple((w, (1 << w) - 1) for w in (32, 16, 8, 4, 2, 1))


def parse_bits(text: str) -> list[int]:
    """Parse an ASCII bit string; whitespace between groups is ignored."""
    bits = []
    for offset, ch in enumerate(text):
        if ch == "0":
            bits.append(0)
        elif ch == "1":
            bits.append(1)
        elif not ch.isspace():
            raise ValueError(f"invalid bit character {ch!r} at offset {offset}")
    return bits


def format_bits(bits: BitSeq) -> str:
    return "".join("1" if b else "0" for b in bits)


def rank(b: Bit, i: int, s: BitSeq) -> int:
    """Number of positions j < i with s[j] == b."""
    if i < 0:
        raise ValueError("prefix length must be non-negative")
    return s[:i].count(b)


def select(b: Bit, i: int, s: BitSeq) -> int:
    """1-based position of the i-th occurrence of b (see module docs)."""
    if i < 0:
        raise ValueError("occurrence ordinal must be non-negative")
    if i == 0:
        return 0
    remaining = i
    for pos, x in enumerate(s):
        if x == b:
            remaining -= 1
            if remaining == 0:
                return pos + 1
    return len(s) + 1


def succ(b: Bit, s: BitSeq, y: int) -> int:
    """1-based position of the first b at or after 1-based index y."""
    if y < 1:
        raise ValueError("succ indexes from 1")
    return select(b, rank(b, y - 1, s) + 1, s)


def pred(b: Bit, s: BitSeq, y: int) -> int:
    """1-based position of the last b at or before 1-based index y; 0 if none."""
    if y < 1:
        raise ValueError("pred indexes from 1")
    return select(b, rank(b, y, s), s)


def _ascii_bits(bits: BitSeq) -> bytes:
    """The ASCII '0'/'1' spelling of a bit sequence.  A bit is an int
    (bools included) equal to 0 or 1; anything else raises."""
    raw = bytes(bits)
    if raw.translate(None, b"\x00\x01"):
        raise ValueError("bits must be 0 or 1")
    return raw.translate(_TO_ASCII)


def _frozen_words(values) -> memoryview:
    """Read-only sequence of unsigned 64-bit ints."""
    return memoryview(array("Q", values).tobytes()).cast("Q")


def _word_select(word: int, r: int) -> int:
    """0-based offset of the r-th 1 (counting from 1) within a word."""
    offset = 0
    for width, mask in _HALVES:
        low = ((word >> offset) & mask).bit_count()
        if low < r:
            r -= low
            offset += width
    return offset


class BitVector:
    """Immutable bit sequence with a rank/select directory.

    Bit j is bit j % 64 of word j // 64, and the directory holds the
    number of 1s before each word: the counts of rank9 (Vigna,
    *Broadword Implementation of Rank/Select Queries*, 2008), kept
    absolute per word instead of split into superblocks.  ``rank`` is
    one directory lookup plus ``int.bit_count`` of one masked word;
    ``select`` bisects the directory, reading the 0-count before word k
    as 64k minus its 1-count, then halves its way into one word.  Both
    answer exactly like the free ``rank`` and ``select``.  Words and
    directory take 16 bytes per 64 bits.
    """

    __slots__ = ("_len", "_words", "_ones")

    def __init__(self, bits: BitSeq):
        text = _ascii_bits(bits)
        words = [int(text[k : k + 64][::-1], 2) for k in range(0, len(text), 64)]
        object.__setattr__(self, "_len", len(text))
        object.__setattr__(self, "_words", _frozen_words(words))
        ones = accumulate((w.bit_count() for w in words), initial=0)
        object.__setattr__(self, "_ones", _frozen_words(ones))

    def __setattr__(self, name, value):
        raise AttributeError("BitVector is immutable")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._len:
            raise IndexError("bit index out of range")
        return (self._words[i >> 6] >> (i & 63)) & 1

    def __iter__(self):
        text = "".join(format(w, "064b")[::-1] for w in self._words)
        return iter(text[: self._len].encode().translate(_FROM_ASCII))

    def __eq__(self, other):
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._len == other._len and self._words == other._words

    def __hash__(self):
        return hash((self._len, self._words.tobytes()))

    def __repr__(self):
        return f"BitVector(parse_bits({format_bits(self)!r}))"

    def rank(self, b: Bit, i: int) -> int:
        """Number of positions j < i holding b; i saturates at len."""
        if i < 0:
            raise ValueError("prefix length must be non-negative")
        i = min(i, self._len)
        k, r = i >> 6, i & 63
        ones = self._ones[k]
        if r:
            ones += (self._words[k] & ((1 << r) - 1)).bit_count()
        return ones if b == 1 else i - ones

    def select(self, b: Bit, i: int) -> int:
        """1-based position of the i-th b: 0 for i == 0, len + 1 when
        fewer than i exist."""
        if i < 0:
            raise ValueError("occurrence ordinal must be non-negative")
        if i == 0:
            return 0
        ones = self._ones
        if b == 1:
            if i > ones[-1]:
                return self._len + 1
            k = bisect_left(ones, i) - 1
            before, word = ones[k], self._words[k]
        else:
            if i > self._len - ones[-1]:
                return self._len + 1
            k = bisect_left(range(len(ones)), i, key=lambda k: (k << 6) - ones[k]) - 1
            before, word = (k << 6) - ones[k], ~self._words[k]
        return (k << 6) + _word_select(word, i - before) + 1
