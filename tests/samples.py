"""Shared fixture data: the worked examples every module is checked against."""

import re

from succinct import SizeBounds, Tree, parse_bits
from succinct.dynamic import BLACK, RED, Leaf, Node

# 58-bit sample string with known rank/select answers.
BITS58_TEXT = "1001 0100 1110 0100 1101 0000 1111 0100 1001 1001 0100 0100 0101 0101 10"
BITS58 = parse_bits(BITS58_TEXT)

# 10-node sample tree; labels follow the level-order numbering.
TREE10 = Tree(
    1,
    (
        Tree(2, (Tree(5), Tree(6))),
        Tree(3),
        Tree(4, (Tree(7), Tree(8, (Tree(10),)), Tree(9))),
    ),
)
TREE10_TEXT = "(1 (2 (5) (6)) (3) (4 (7) (8 (10)) (9)))"

# Its encoding under a super root: 21 bits, node 8 sits at offset 17.
LOUDS21_TEXT = "101110110011100001000"
LOUDS21 = parse_bits(LOUDS21_TEXT)


def leaf_of(bits) -> Leaf:
    """The leaf holding a sequence of 0/1 bits, index 0 first, spelled
    straight as its sentinel int -- a 1, then the bits last to first --
    so a check of the library's leaf builders does not go through them."""
    return Leaf(int("1" + "".join("01"[bit] for bit in reversed(bits)), 2))


def dbv_sample() -> Node:
    """40-bit dynamic bit vector with known metadata at every node."""
    b = parse_bits
    return Node(
        BLACK,
        Node(BLACK, leaf_of(b("10000010")), 8, 2, leaf_of(b("00000100"))),
        16,
        3,
        Node(
            BLACK,
            Node(RED, leaf_of(b("00001010")), 8, 2, leaf_of(b("00001011"))),
            16,
            5,
            leaf_of(b("10000001")),
        ),
    )


DBV40_FLAT = parse_bits("10000010 00000100 00001010 00001011 10000001")

# Deletion base cases at the minimum leaf size (low = 3): deleting bit 1
# underflows the left leaf; the first tree repairs by borrowing through
# the red sibling, the second by merging into it.
DEL_BOUNDS = SizeBounds(3, 8)


def del_borrow_sample() -> tuple[Node, Node]:
    b = parse_bits
    before = Node(
        BLACK, leaf_of(b("100")), 3, 1, Node(RED, leaf_of(b("1011")), 4, 3, leaf_of(b("111")))
    )
    after = Node(
        BLACK, Node(RED, leaf_of(b("101")), 3, 2, leaf_of(b("011"))), 6, 4, leaf_of(b("111"))
    )
    return before, after


def del_merge_sample() -> tuple[Node, Node]:
    b = parse_bits
    before = Node(
        BLACK, leaf_of(b("100")), 3, 1, Node(RED, leaf_of(b("101")), 3, 2, leaf_of(b("1111")))
    )
    after = Node(BLACK, leaf_of(b("10101")), 5, 3, leaf_of(b("1111")))
    return before, after


def reference_text_bits(text: str) -> bytes:
    """The '0'/'1' bytes of bit text as ``bitvec._text_bits`` read them
    before its pure 0/1 shortcut: one scan for a character that is
    neither a bit nor whitespace, then the whitespace dropped."""
    bad = re.search(r"[^01\s]", text)
    if bad:
        raise ValueError(f"invalid bit character {bad[0]!r} at offset {bad.start()}")
    return "".join(text.split()).encode()


def reference_ascii_bits(bits) -> bytes:
    """The '0'/'1' bytes of a bit sequence as ``bitvec._ascii_bits`` read
    them when it converted with ``bytes(bits)``: a bare int raises
    TypeError, an item other than 0 or 1 ValueError."""
    if isinstance(bits, int):
        raise TypeError(f"bits must be a sequence of 0/1 values, not the int {bits!r}")
    raw = bytes(bits)
    if raw.translate(None, b"\x00\x01"):
        raise ValueError("bits must be 0 or 1")
    return raw.translate(bytes.maketrans(b"\x00\x01", b"01"))
