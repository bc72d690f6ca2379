"""Static bit sequences with rank, select, succ and pred.

A bit sequence is a Python sequence of 0/1 ints, index 0 first;
``parse_bits``/``format_bits`` convert to the ASCII '0'/'1' form used by
the CLI and by test fixtures.

``BitVector`` answers the four queries.  Its index conventions are
load-bearing (the navigation formulas in ``louds`` depend on them
exactly):

- ``rank(b, i)`` takes a 0-based prefix length ``i`` and counts the
  occurrences of ``b`` among the first ``i`` bits; ``i`` past the end
  saturates to ``len``.
- ``select(b, i)`` returns the position of the ``i``-th occurrence of
  ``b`` counting positions from 1, so ``select(b, i) - 1`` is the
  0-based index of that occurrence.  Selecting the 0th occurrence gives
  0, and when fewer than ``i`` occurrences exist the result is
  ``len + 1``.
- ``succ``/``pred`` take a 1-based index ``y`` and return the 1-based
  position of the next/previous occurrence,
  ``select(b, rank(b, y - 1) + 1)`` and ``select(b, rank(b, y))``.

``oracle`` holds the definitions as linear scans, which the tests
compare ``BitVector`` against.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect_left
from functools import cache
from itertools import accumulate
from operator import mul, sub
from typing import Sequence

Bit = int
BitSeq = Sequence[int]

__all__ = [
    "Bit",
    "BitSeq",
    "BitVector",
    "format_bits",
    "parse_bits",
]

_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")
_WORD = (1 << 64) - 1  # word ^ _WORD flips all 64 bits, padding included
_NOT_BIT = re.compile(r"[^01\s]")


def _text_bits(text: str) -> bytes:
    """The '0'/'1' bytes of ASCII bit text, whose whitespace is ignored
    wherever it stands; any other character raises.  Pure 0/1 text skips
    the scan (isascii goes first: a lone surrogate cannot be encoded)."""
    if text.isascii() and not (raw := text.encode()).translate(None, b"01"):
        return raw
    if bad := _NOT_BIT.search(text):
        raise ValueError(f"invalid bit character {bad[0]!r} at offset {bad.start()}")
    return "".join(text.split()).encode()


def parse_bits(text: str) -> list[int]:
    """Parse an ASCII bit string; whitespace between groups is ignored."""
    return list(_text_bits(text).translate(_FROM_ASCII))


def format_bits(bits: BitSeq) -> str:
    return _ascii_bits(bits).decode()


def _ascii_bits(bits: BitSeq) -> bytearray:
    """The ASCII '0'/'1' spelling of bits, not of an int; an item other
    than 0 or 1 raises.  CPython's ``bytearray`` reads a list's exact ints
    directly, not through ``__index__`` as ``bytes`` does: 0.72 vs 1.09 ms at 10^5 bits."""
    if isinstance(bits, int):
        raise TypeError(f"bits must be a sequence of 0/1 values, not the int {bits!r}")
    raw = bytearray(bits)
    if raw.translate(None, b"\x00\x01"):
        raise ValueError("bits must be 0 or 1")
    return raw.translate(_TO_ASCII)


def _frozen(code: str, values) -> memoryview:
    """Read-only sequence of unsigned ints of array typecode ``code``."""
    return memoryview(array(code, values).tobytes()).cast(code)


@cache
def _halves(k: int) -> tuple[tuple[int, int], ...]:
    """(width, mask) of the steps that halve a word of at most 2**k bits
    down to one byte, widest first."""
    return tuple((1 << j, (1 << (1 << j)) - 1) for j in reversed(range(3, k)))


# _IN_BYTE[x << 3 | r - 1] is the offset of the r-th 1 of the byte x
_IN_BYTE = bytes(([p for p in range(8) if x >> p & 1] + [0] * 8)[r]
                 for x in range(256) for r in range(8))


def _halve(word: int, r: int, steps: tuple[tuple[int, int], ...]) -> int:
    """0-based offset of the r-th 1 (counting from 1) within a word that
    holds at least r 1s.  Each step keeps the half holding it, so the
    word shrinks as it goes and every ``bit_count`` is of a smaller int;
    ``_IN_BYTE`` finishes in the last byte."""
    offset = 0
    for width, mask in steps:
        low = word & mask
        count = low.bit_count()
        if count < r:
            r -= count
            offset += width
            word >>= width
        else:
            word = low
    return offset + _IN_BYTE[word << 3 | r - 1]


_HALVES = _halves(6)  # the steps for one 64-bit BitVector word
# a block's packed word: 9-bit field t, t = 0..6, holds the block's 1s before its word t + 1
_SHIFTS = (63, 0, 9, 18, 27, 36, 45, 54)  # the field for word j; shifting by 63 gives 0 for j = 0
_SPANS = sum(64 * (t + 1) << 9 * t for t in range(7))  # every bit before word t + 1, in field t
_AFTER = tuple(sum(1 << 9 * t for t in range(s, 7)) for s in range(7))  # 1s in the fields s..6


class BitVector:
    """Immutable bit sequence with a rank/select directory.

    Bit j is bit j % 64 of word j // 64, and the words are padded with
    0s to whole 512-bit blocks.  The directory is rank9's (Vigna,
    *Broadword Implementation of Rank/Select Queries*, 2008): the 1-count
    before each block k = 0..m, then the 0-count before each block (the
    last is len - ones, so padding is never selected), 32-bit below
    2**32 bits; and per block one word packing the 1-counts before its
    words 1..7, 9 bits each (word j's 0-count is 64 j minus its 1-count).
    ``rank`` is one block count, one packed field and ``int.bit_count``
    of one masked word; ``select`` is a C-level ``bisect_left`` over the
    block counts of one half, a three-step binary search of the packed
    fields for the word, then halves into it; ``succ`` and ``pred`` look
    in the word holding their index first.  For ``b`` in (0, 1), bools
    included, all answer as the module docstring defines; any other
    ``b`` raises ``ValueError``.  Words and directory take 80 bytes per
    block, plus 16 for the counts past the end.  ``_of_int`` builds them.
    """

    __slots__ = ("_len", "_words", "_dir", "_packed")

    def __new__(cls, bits: BitSeq):
        text = _ascii_bits(bits)
        return _of_int(len(text), int(text[::-1] or b"0", 2))

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
        x = int.from_bytes(self._words.obj, sys.byteorder)
        return iter(format(x, f"0{self._len}b")[::-1][: self._len].encode().translate(_FROM_ASCII))

    def __eq__(self, other):
        return (self._len == other._len and self._words == other._words
                if isinstance(other, BitVector) else NotImplemented)

    def __hash__(self):
        return hash((self._len, self._words.tobytes()))

    def __repr__(self):
        return f"BitVector(parse_bits({format_bits(self)!r}))"

    def __reduce_ex__(self, protocol):
        # memoryviews do not pickle; protocols 0 and 1 write ints in decimal, capped at 4300 digits
        x = int.from_bytes(self._words.obj, sys.byteorder)
        return _of_int, (self._len, x if protocol > 1 else x.to_bytes(-(-self._len // 8), "little"))

    def rank(self, b: Bit, i: int) -> int:
        """Number of positions j < i holding b; i saturates at len."""
        if b not in (0, 1):
            raise ValueError("b must be 0 or 1")
        if i < 0:
            raise ValueError("prefix length must be non-negative")
        if i > self._len:
            i = self._len
        w, r = i >> 6, i & 63
        ones = self._dir[w >> 3] + (self._packed[w >> 3] >> _SHIFTS[w & 7] & 511)
        if r:
            ones += (self._words[w] & ((1 << r) - 1)).bit_count()
        return ones if b == 1 else i - ones

    def select(self, b: Bit, i: int) -> int:
        """1-based position of the i-th b: 0 for i == 0, len + 1 when
        fewer than i exist."""
        if b not in (0, 1):
            raise ValueError("b must be 0 or 1")
        if i < 0:
            raise ValueError("occurrence ordinal must be non-negative")
        if i == 0:
            return 0
        counts = self._dir
        half = len(counts) >> 1
        lo = 0 if b == 1 else half
        k = bisect_left(counts, i, lo, lo + half) - 1
        if k == lo + half - 1:  # i is past the total
            return self._len + 1
        r = i - counts[k]  # 1..512, in block k - lo
        fields = self._packed[k - lo] if b == 1 else _SPANS - self._packed[k - lo]
        # word j of the block holds the r-th b: search the sorted fields of words 4, j + 2, j + 1
        j = 4 if r > fields >> 27 & 511 else 0
        j += 2 if r > fields >> _SHIFTS[j + 2] & 511 else 0
        j += 1 if r > fields >> _SHIFTS[j + 1] & 511 else 0
        w = (k - lo << 3) + j
        word = self._words[w] if b == 1 else self._words[w] ^ _WORD
        return (w << 6) + _halve(word, r - (fields >> _SHIFTS[j] & 511), _HALVES) + 1

    def succ(self, b: Bit, y: int) -> int:
        """1-based position of the first b at or after 1-based index y;
        len + 1 if none."""
        if b not in (0, 1):
            raise ValueError("b must be 0 or 1")
        if y < 1:
            raise ValueError("succ indexes from 1")
        j = y - 1
        if j < self._len:
            word = self._words[j >> 6]
            rest = (word if b == 1 else word ^ _WORD) >> (j & 63)
            if rest:  # a 0 found in the padding means none
                j += (rest & -rest).bit_length()
                return j if j <= self._len else self._len + 1
        return self.select(b, self.rank(b, j) + 1)

    def pred(self, b: Bit, y: int) -> int:
        """1-based position of the last b at or before 1-based index y;
        0 if none."""
        if b not in (0, 1):
            raise ValueError("b must be 0 or 1")
        if y < 1:
            raise ValueError("pred indexes from 1")
        j = min(y, self._len) - 1
        if j >= 0:
            word = self._words[j >> 6]
            below = (word if b == 1 else word ^ _WORD) & ((2 << (j & 63)) - 1)
            if below:
                return (j & ~63) + below.bit_length()
        return self.select(b, self.rank(b, y))


def _of_int(n: int, x: int | bytes) -> BitVector:
    """The one builder: the n-bit vector whose bit j is bit j of x, in 0 .. 2**n - 1."""
    x = int.from_bytes(x, "little") if isinstance(x, bytes) else x  # from pickle protocol 0 or 1
    if x >> n:  # nonzero for a negative x as well
        raise ValueError(f"{x} is not an {n}-bit value")
    # one int's bytes in the host's order, which on a big-endian host puts the last word first
    words = x.to_bytes(-(-n // 512) << 6, sys.byteorder)
    words = memoryview(words).cast("Q")[:: 1 if sys.byteorder == "little" else -1]
    counts = list(map(int.bit_count, words))
    ones = list(accumulate(counts, initial=0))[::8]
    zeros = list(map(sub, range(0, n, 512), ones)) + [n - ones[-1]]
    # per block, word s's count added into fields s..6; the empty block past the end gives 0
    packed = [sum(map(mul, counts[k : k + 7], _AFTER)) for k in range(0, len(counts) + 1, 8)]
    vector = object.__new__(BitVector)
    object.__setattr__(vector, "_len", n)
    object.__setattr__(vector, "_words", words)
    object.__setattr__(vector, "_dir", _frozen("I" if n < 1 << 32 else "Q", ones + zeros))
    object.__setattr__(vector, "_packed", _frozen("Q", packed))
    return vector
