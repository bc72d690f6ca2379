"""Dynamic bit vectors on red-black trees.

Each leaf is one Python int: bit j of the leaf is bit j of the int (LSB
first, as in ``bitvec.BitVector``), and a sentinel 1 past the last bit
carries the length, so a leaf is ``word | 1 << length``.  In-leaf rank,
select, access, insert, delete, split and merge are masks, shifts and
``int.bit_count`` that carry the sentinel along -- the word operations
the leaf window of w^2/2 to 2w^2 bits is sized for.  Every internal node
keeps the pair (num, ones) = bit count and 1-count of its left subtree,
so queries steer left or right without touching the bits.  Leaves hold
between ``low`` and ``high - 1`` bits (a lone root leaf may be smaller);
a leaf that reaches ``high`` on insertion splits in two, and a leaf that
would drop below ``low`` on deletion borrows a bit from a sibling leaf
or merges with it.  ``from_bits`` builds a balanced tree of evenly
filled leaves in O(n).  Every operation walks from the root to one leaf
once: an index past either end steers to the end leaf, whose offset
check is the range check.

Updates are purely functional: each returns a tree, new but sharing
every untouched subtree with the input, or the input itself when nothing
changed (``dset`` of a 1, ``dclear`` of a 0), so ``is`` tells whether an
update changed anything.  ``dflatten`` defines the meaning of a tree,
and every operation here is equivalent to the corresponding
flat-sequence operation on ``dflatten`` -- the test suite checks
exactly that, against the naive implementations in ``oracle``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .bitvec import _FROM_ASCII, _ascii_bits, _halve, _halves, _text_bits

__all__ = [
    "BLACK",
    "Color",
    "DEFAULT_BOUNDS",
    "DTree",
    "DynamicBitVector",
    "Leaf",
    "Node",
    "RED",
    "SizeBounds",
    "daccess",
    "dclear",
    "ddelete",
    "dflatten",
    "dinsert",
    "drank",
    "dselect0",
    "dselect1",
    "dset",
    "dsize",
    "dump",
    "from_bits",
    "parse_dump",
    "redblack_check",
    "wf_check",
]


class Color(Enum):
    RED = "Red"
    BLACK = "Black"


RED = Color.RED
BLACK = Color.BLACK


class Leaf(int):
    """``length`` bits packed LSB-first below a sentinel 1: ``Leaf(x)``
    is the int x = ``word | 1 << length``, immutable and equal and hashed
    by content; ``word`` and ``length`` are read-only views of it."""

    __slots__ = ()

    @classmethod
    def of(cls, bits: Iterable[int]) -> "Leaf":
        """The leaf holding ``bits``, index 0 first."""
        return _leaf_of_text(_ascii_bits(bits))

    @property
    def word(self) -> int:
        return self ^ 1 << self.bit_length() - 1

    @property
    def length(self) -> int:
        return self.bit_length() - 1

    def __repr__(self):
        return f"Leaf({bin(self)})"


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Node:
    """An internal node; (num, ones) describe its left subtree.  Equal,
    hashed, shown, pickled and copied by its preorder, so any depth is
    safe."""

    __slots__ = ("color", "left", "num", "ones", "right")
    color: Color
    left: "DTree"
    num: int
    ones: int
    right: "DTree"

    def __init__(self, color: Color, left: "DTree", num: int, ones: int, right: "DTree"):
        _set_color(self, color)
        _set_left(self, left)
        _set_num(self, num)
        _set_ones(self, ones)
        _set_right(self, right)

    def _key(self) -> tuple:
        return tuple((n.color, n.num, n.ones) if type(n) is Node else n for n in _preorder(self))

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Node) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"<Node in preorder: {self._key()!r}>"

    def __reduce__(self):
        return _node_of_key, (self._key(),)


_set_color, _set_left, _set_num = Node.color.__set__, Node.left.__set__, Node.num.__set__
_set_ones, _set_right = Node.ones.__set__, Node.right.__set__
DTree = Leaf | Node


def _node_of_key(key: tuple) -> Node:
    """The tree whose ``Node._key`` is key, built bottom-up: in the
    reversed preorder each node follows both its subtrees."""
    done: list[DTree] = []
    for x in reversed(key):
        if type(x) is tuple:
            x = Node(x[0], done.pop(), x[1], x[2], done.pop())
        done.append(x)
    return done[0]


@dataclass(frozen=True)
class SizeBounds:
    """Leaf size window: every leaf keeps low <= len < high.

    high >= 2*low guarantees that merging two minimal leaves never
    reaches the split threshold.  ``from_w`` derives the window from a
    word-size parameter as w^2/2 and 2*w^2.
    """

    low: int
    high: int

    def __post_init__(self):
        if self.low < 1:
            raise ValueError("low must be at least 1")
        if self.high < 2 * self.low:
            raise ValueError("high must be at least 2*low")

    @classmethod
    def from_w(cls, w: int) -> "SizeBounds":
        if w < 2:
            raise ValueError("w must be at least 2")
        return cls(w * w // 2, 2 * w * w)


# the window of a 64-bit word: 2048 <= leaf length < 8192
DEFAULT_BOUNDS = SizeBounds.from_w(64)


# ---------------------------------------------------------------------------
# leaf words


def _leaf_of_text(text: bytes) -> Leaf:
    """The leaf spelled by '0'/'1' bytes, index 0 first."""
    return Leaf(int(b"1" + text[::-1], 2))


def _leaf_text(leaf: Leaf) -> str:
    """The '0'/'1' string of a leaf, index 0 first."""
    return bin(leaf)[3:][::-1]


def _split(leaf: Leaf, k: int) -> tuple[Leaf, Leaf]:
    """The first k bits of a leaf and the rest."""
    return Leaf(leaf & (1 << k) - 1 | 1 << k), Leaf(leaf >> k)


def _join(a: Leaf, b: Leaf) -> Leaf:
    """a's bits, then b's: the -1 in b - 1 cancels a's sentinel."""
    return Leaf(a + (b - 1 << a.bit_length() - 1))


# ---------------------------------------------------------------------------
# queries


def _preorder(t: DTree) -> list[DTree]:
    """Every node and leaf of t in preorder, walking an explicit stack."""
    out, stack = [], [t]
    while stack:
        out.append(x := stack.pop())
        if isinstance(x, Node):
            stack += (x.right, x.left)
    return out


def dflatten(t: DTree) -> list[int]:
    """In-order concatenation of the leaf bits."""
    texts = [_leaf_text(x) for x in _preorder(t) if isinstance(x, Leaf)]
    return list("".join(texts).encode().translate(_FROM_ASCII))


def dsize(t: DTree) -> int:
    total = 0
    while isinstance(t, Node):
        total += t.num
        t = t.right
    return total + t.bit_length() - 1


def drank(t: DTree, i: int) -> int:
    """1-count of the first i bits; i saturates at the total size."""
    if i < 0:
        raise ValueError("prefix length must be non-negative")
    acc = 0
    while isinstance(t, Node):
        if i < t.num:
            t = t.left
        else:
            acc += t.ones
            i -= t.num
            t = t.right
    # never t >> i: for a small i it copies the whole leaf
    if i < t.bit_length():
        return acc + (t & (1 << i) - 1).bit_count()
    return acc + t.bit_count() - 1


_WINDOW = 256  # the bits where a leaf's select looks first
_WINDOW_MASK = (1 << _WINDOW) - 1
_WINDOW_STEPS = _halves(_WINDOW.bit_length() - 1)


def _dselect(t: DTree, i: int, b: int) -> int:
    """1-based position of the i-th b-bit, with select's conventions.

    The leaf's count of b-bits, known below the descent's first left
    turn and counted otherwise, puts the i-th near the middle of a
    window starting at p.  One shift and count tell the b-bits below p;
    ``_halve`` searches the window, or else the whole leaf, sentinel
    included, or a step could keep a half wider than its width."""
    if i < 0:
        raise ValueError("occurrence ordinal must be non-negative")
    acc, count = 0, None  # t's b-bits, once known
    while isinstance(t, Node):
        left = t.ones if b else t.num - t.ones
        if i <= left:
            t, count = t.left, left
        else:
            acc, i, t = acc + t.num, i - left, t.right
            if count is not None:
                count -= left
    if i == 0:
        return 0
    n = t.bit_length() - 1
    if count is None:
        count = t.bit_count() - 1 if b else n + 1 - t.bit_count()
        if i > count:
            return acc + n + 1
    p = max(0, i * n // count - _WINDOW // 2)
    high = t >> p
    ones = high.bit_count() - 1
    r = i - count + (ones if b else n - p - ones)  # i less the b-bits below p
    window = (high if b else ~high) & _WINDOW_MASK  # ~high's 1s past the sentinel follow the r-th
    if 0 < r <= window.bit_count():
        return acc + p + _halve(window, r, _WINDOW_STEPS) + 1
    word = t if b else t ^ (1 << n) - 1
    return acc + _halve(word, i, _halves(n.bit_length())) + 1


def dselect1(t: DTree, i: int) -> int:
    """1-based position of the i-th 1-bit, with select's conventions."""
    return _dselect(t, i, 1)


def dselect0(t: DTree, i: int) -> int:
    """1-based position of the i-th 0-bit, with select's conventions."""
    return _dselect(t, i, 0)


def daccess(t: DTree, i: int) -> int:
    j = i
    while isinstance(t, Node):
        if j < t.num:
            t = t.left
        else:
            j -= t.num
            t = t.right
    if j < 0 or (x := t >> j) < 2:
        raise IndexError(f"bit index {i} out of range")
    return x & 1


# ---------------------------------------------------------------------------
# structural checks


def _measure(t: DTree, low: int, high: int) -> tuple[bool, int, int]:
    """(well_formed, size, ones), bottom-up: in the reversed preorder each
    node follows both its subtrees, and its num/ones must be its left's."""
    ok = True
    done: list[tuple[int, int]] = []  # (size, ones) of finished subtrees
    for x in reversed(_preorder(t)):
        if isinstance(x, Leaf):
            size = x.bit_length() - 1
            ok = ok and x > 0 and low <= size < high
            done.append((size, x.bit_count() - 1))
        else:
            (num, ones), (size_r, ones_r) = done.pop(), done.pop()
            ok = ok and x.num == num and x.ones == ones
            done.append((num + size_r, ones + ones_r))
    return ok, *done[0]


def wf_check(t: DTree, bounds: SizeBounds) -> bool:
    """Structural well-formedness: metadata matches the leaves and every
    leaf is inside the size window, except that a lone root leaf may
    hold fewer than ``low`` bits."""
    low = 0 if isinstance(t, Leaf) else bounds.low
    return _measure(t, low, bounds.high)[0]


def redblack_check(t: DTree, context: Color = RED) -> int | None:
    """Black height when the red-black invariant holds under ``context``
    (no red node with a red parent, equal black counts on every path),
    None otherwise.  The default Red context rejects a red root.  Works
    bottom-up over the reversed preorder, as _measure does."""
    done: list[tuple[int, Color]] = []  # (black height, root color) of finished subtrees
    for x in reversed(_preorder(t)):
        if isinstance(x, Leaf):
            done.append((0, BLACK))
        else:
            (height, left), (height_r, right) = done.pop(), done.pop()
            if height != height_r or x.color is RED and RED in (left, right):
                return None
            done.append((height + (x.color is BLACK), x.color))
    height, color = done[0]
    return None if color is RED and context is RED else height


# ---------------------------------------------------------------------------
# insertion


def _lift_l(c: Color, l: Node, num: int, ones: int, r: DTree) -> Node | None:
    """The red-red rotation on the left: when a grandchild under ``l`` is
    red, the node of color c with two black children that it becomes,
    else None.  num/ones describe ``l``.  The outer grandchild is tried
    first; insertion never leaves both red, so its trees do not depend
    on the order, and deletion shares the rotation (Kahrs, *Red-black
    trees with types*, 2001)."""
    ll, lr = l.left, l.right
    if isinstance(ll, Node) and ll.color is RED:
        return Node(
            c,
            Node(BLACK, ll.left, ll.num, ll.ones, ll.right),
            l.num,
            l.ones,
            Node(BLACK, lr, num - l.num, ones - l.ones, r),
        )
    if isinstance(lr, Node) and lr.color is RED:
        return Node(
            c,
            Node(BLACK, ll, l.num, l.ones, lr.left),
            l.num + lr.num,
            l.ones + lr.ones,
            Node(BLACK, lr.right, num - l.num - lr.num, ones - l.ones - lr.ones, r),
        )
    return None


def _lift_r(c: Color, l: DTree, num: int, ones: int, r: Node) -> Node | None:
    """Mirror of _lift_l for a red grandchild under ``r``."""
    rl, rr = r.left, r.right
    if isinstance(rr, Node) and rr.color is RED:
        return Node(
            c,
            Node(BLACK, l, num, ones, rl),
            num + r.num,
            ones + r.ones,
            Node(BLACK, rr.left, rr.num, rr.ones, rr.right),
        )
    if isinstance(rl, Node) and rl.color is RED:
        return Node(
            c,
            Node(BLACK, l, num, ones, rl.left),
            num + rl.num,
            ones + rl.ones,
            Node(BLACK, rl.right, r.num - rl.num, r.ones - rl.ones, rr),
        )
    return None


def _dins(t: DTree, b: int, i: int, bounds: SizeBounds) -> DTree:
    """Insert bit b at offset i; the leaf checks i first, then b.  On the
    way back up, a black node lifts a red grandchild under a red child
    (Okasaki's balance)."""
    if isinstance(t, Leaf):
        if i < 0 or not (x := t >> i):
            raise IndexError("insert position out of range")
        if not (isinstance(b, int) and 0 <= b <= 1):
            raise ValueError(f"bit must be 0 or 1, got {b!r}")
        grown = t & (1 << i) - 1 | b << i | x << i + 1
        if grown.bit_length() > bounds.high:
            left, right = _split(grown, (bounds.high + 1) // 2)
            return Node(RED, left, left.bit_length() - 1, left.bit_count() - 1, right)
        return Leaf(grown)
    c = t.color
    if i < t.num:
        l, num, ones, r = _dins(t.left, b, i, bounds), t.num + 1, t.ones + b, t.right
        lift = c is BLACK and isinstance(l, Node) and l.color is RED
        return lift and _lift_l(RED, l, num, ones, r) or Node(c, l, num, ones, r)
    l, num, ones, r = t.left, t.num, t.ones, _dins(t.right, b, i - t.num, bounds)
    lift = c is BLACK and isinstance(r, Node) and r.color is RED
    return lift and _lift_r(RED, l, num, ones, r) or Node(c, l, num, ones, r)


def dinsert(t: DTree, b: int, i: int, bounds: SizeBounds) -> DTree:
    """Insert bit b (0 or 1, bools included) at position i
    (0 <= i <= size); the root is repainted black afterwards."""
    root = _dins(t, b, i, bounds)
    if isinstance(root, Node) and root.color is RED:
        return Node(BLACK, root.left, root.num, root.ones, root.right)
    return root


# ---------------------------------------------------------------------------
# set / clear


def _dset(t: DTree, i: int, value: int) -> DTree:
    """t with bit i set to value; t itself when the bit already holds it."""
    if isinstance(t, Leaf):
        if i < 0 or (x := t >> i) < 2:
            raise IndexError("bit index out of range")
        return t if x & 1 == value else Leaf(t ^ 1 << i)
    if i < t.num:
        left = _dset(t.left, i, value)
        return t if left is t.left else Node(t.color, left, t.num, t.ones + 2 * value - 1, t.right)
    right = _dset(t.right, i - t.num, value)
    return t if right is t.right else Node(t.color, t.left, t.num, t.ones, right)


def dset(t: DTree, i: int) -> DTree:
    """Set bit i to 1.  Shape, colors and untouched metadata are
    preserved, and t itself comes back when the bit was already 1."""
    return _dset(t, i, 1)


def dclear(t: DTree, i: int) -> DTree:
    """Clear bit i to 0; t itself comes back when the bit was already 0."""
    return _dset(t, i, 0)


# ---------------------------------------------------------------------------
# deletion
#
# Deleting a bit leaves a subtree short in one of two ways: a leaf that
# held ``low`` bits falls one bit under the size window, or a subtree
# loses one level of black height.  _ddel returns (tree, short, bit):
# the rebuilt subtree, whether it is short, and the removed bit, which
# each ancestor subtracts from its 1-count on the way back up.  Its
# first case, a leaf, is the one place a bit is taken out and the offset
# checked; ddelete ignores a lone root leaf's short.  _fix_left_short /
# _fix_right_short repair either shortfall, rebuilding (num, ones) from
# existing metadata only, and the red-black invariant lets the sibling
# alone pick the repair: a leaf has black height 0, so the sibling of a
# short leaf is a leaf or a red node over two leaves, while a subtree
# that lost a black level had one to lose, so its sibling is a node.

_Fixed = tuple[DTree, bool]


def _fix_left_short(c: Color, l: DTree, num: int, ones: int, r: DTree, low: int) -> _Fixed:
    """Rebuild a node of color c whose left subtree ``l`` (num bits,
    ones 1s) is short, with the fixed tree and whether it is one black
    level short in turn.  By the sibling ``r``:

    - a leaf lends its first bit if it holds more than ``low`` bits,
      else both leaves merge, one black level short under a black c;
    - a red node rotates above c, and the repair runs under it with c
      red beside its left child;
    - a black node lifts a red nephew with insertion's rotation under
      color c, else turns red, one black level short under a black c.
    """
    if isinstance(r, Leaf):
        if r.bit_length() > low + 1:
            head, rest = _split(r, 1)
            return Node(c, _join(l, head), num + 1, ones + (r & 1), rest), False
        return _join(l, r), c is BLACK
    if r.color is RED:
        inner, short = _fix_left_short(RED, l, num, ones, r.left, low)
        return Node(BLACK, inner, num + r.num, ones + r.ones, r.right), short
    lifted = _lift_r(c, l, num, ones, r)
    if lifted is not None:
        return lifted, False
    return Node(BLACK, l, num, ones, Node(RED, r.left, r.num, r.ones, r.right)), c is BLACK


def _fix_right_short(c: Color, l: DTree, num: int, ones: int, r: DTree, low: int) -> _Fixed:
    """Mirror of _fix_left_short for a short right subtree ``r``; num and
    ones describe the sibling ``l``, and a leaf there lends its last bit."""
    if isinstance(l, Leaf):
        if l.bit_length() > low + 1:
            rest, tail = _split(l, num - 1)
            return Node(c, rest, num - 1, ones - (tail & 1), _join(tail, r)), False
        return _join(l, r), c is BLACK
    if l.color is RED:
        inner, short = _fix_right_short(RED, l.right, num - l.num, ones - l.ones, r, low)
        return Node(BLACK, l.left, l.num, l.ones, inner), short
    lifted = _lift_l(c, l, num, ones, r)
    if lifted is not None:
        return lifted, False
    return Node(BLACK, Node(RED, l.left, l.num, l.ones, l.right), num, ones, r), c is BLACK


def _ddel(t: DTree, i: int, low: int) -> tuple[DTree, bool, int]:
    """Delete bit i of a subtree of a well-formed red-black tree."""
    if isinstance(t, Leaf):
        if i < 0 or (x := t >> i) < 2:
            raise IndexError("delete position out of range")
        return Leaf(t & (1 << i) - 1 | x >> 1 << i), t.bit_length() <= low + 1, x & 1
    c, l, num, ones, r = t.color, t.left, t.num, t.ones, t.right
    if i < num:
        l, short, b = _ddel(l, i, low)
        if short:
            fixed, short = _fix_left_short(c, l, num - 1, ones - b, r, low)
            return fixed, short, b
        return Node(c, l, num - 1, ones - b, r), False, b
    r, short, b = _ddel(r, i - num, low)
    if short:
        fixed, short = _fix_right_short(c, l, num, ones, r, low)
        return fixed, short, b
    return Node(c, l, num, ones, r), False, b


def ddelete(t: DTree, i: int, bounds: SizeBounds) -> DTree:
    """Delete bit i (0 <= i < size)."""
    return _ddel(t, i, bounds.low)[0]


# ---------------------------------------------------------------------------
# construction, dump format, facade


def from_bits(bits: Iterable[int], bounds: SizeBounds) -> DTree:
    """Build a balanced tree in O(n), bottom-up as in Hinze,
    *Constructing Red-Black Trees* (1999).

    The bits are cut into k evenly filled leaves, k chosen so that the
    leaves sit nearest the middle of the size window; input shorter
    than ``low`` is one root leaf.  Nodes above depth floor(log2 k) are
    black, and the nodes of the last, partial level are red.
    """
    text = _ascii_bits(bits)
    n, low, high = len(text), bounds.low, bounds.high
    if n < low:
        return _leaf_of_text(text)
    # every k in [n / (high - 1), n / low] keeps the leaves in the window
    k = min(max(round(2 * n / (low + high)), -(-n // (high - 1))), n // low)
    size, extra = divmod(n, k)
    cuts = [j * size + min(j, extra) for j in range(k + 1)]
    leaves = [_leaf_of_text(text[a:b]) for a, b in zip(cuts, cuts[1:])]
    return _build(leaves, 0, k, k.bit_length() - 1)[0]


def _build(leaves: list[Leaf], lo: int, hi: int, bh: int) -> tuple[DTree, int, int]:
    """(tree, size, ones) over leaves[lo:hi], which number between 2^bh
    and 2^(bh + 1): black nodes down to black height bh, then a red node
    wherever two leaves remain."""
    if hi - lo == 1:
        leaf = leaves[lo]
        return leaf, leaf.bit_length() - 1, leaf.bit_count() - 1
    mid = (lo + hi) // 2
    left, num, ones = _build(leaves, lo, mid, bh - 1)
    right, size_r, ones_r = _build(leaves, mid, hi, bh - 1)
    color = BLACK if bh > 0 else RED
    return Node(color, left, num, ones, right), num + size_r, ones + ones_r


def dump(t: DTree) -> str:
    """Indented s-expression with color/num/ones per node and quoted leaf
    bits; ``parse_dump`` reads it back.  Walks an explicit stack, so any
    depth is safe: each leaf line carries the closing parentheses of the
    nodes whose rightmost leaf it is."""
    lines: list[str] = []
    stack: list[tuple[DTree, int, int]] = [(t, 0, 0)]
    while stack:
        node, depth, closes = stack.pop()
        pad = "  " * depth
        if isinstance(node, Leaf):
            lines.append(f'{pad}(leaf "{_leaf_text(node)}")' + ")" * closes)
        else:
            lines.append(f"{pad}({node.color.value} num={node.num} ones={node.ones}")
            stack += ((node.right, depth + 1, closes + 1), (node.left, depth + 1, 0))
    return "\n".join(lines)


# one dump item and the whitespace after it: the head of an internal
# node (color, num, ones), a whole leaf (and its quoted bits, if any), a
# closing parenthesis, or any other character, which is an error
_DUMP_ITEM = re.compile(
    r'(?:\(\s*(Red|Black)\s+num=(-?\d+)\s+ones=(-?\d+)'
    r'|(\(\s*leaf\s*(?:"([^"]*)"\s*)?\))|(\))|\S)\s*'
)


def _dump_error(text: str, at: int, message: str) -> ValueError:
    """The error at offset ``at`` of a tree dump, located by line and column."""
    line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    return ValueError(f"{message} (line {line}, column {column})")


def parse_dump(text: str) -> DTree:
    """The tree a ``dump`` spells.  Each unclosed node waits on an
    explicit stack as [color, num, ones, children so far...], so any
    depth is safe; a node takes exactly two children.  The bottom entry
    stands in for the root's parent: its one missing child is the root."""
    stack: list[list] = [[None] * 4]
    for m in _DUMP_ITEM.finditer(text):
        color, num, ones, leaf, bits, close = m.groups()
        full = len(stack[-1]) == 5
        if close and full and len(stack) > 1:
            color, num, ones, left, right = stack.pop()
            stack[-1].append(Node(color, left, num, ones, right))
        elif color and not full:
            stack.append([Color(color), int(num), int(ones)])
        elif leaf and not full:
            try:
                stack[-1].append(_leaf_of_text(_text_bits(bits or "")))
            except ValueError as e:
                raise _dump_error(text, m.start(), f"{e} in tree dump leaf") from None
        else:
            want = ("')'" if len(stack) > 1 else "the end") if full else "a node"
            raise _dump_error(text, m.start(), f"expected {want} in tree dump")
    if len(stack) > 1 or len(stack[0]) < 5:
        raise _dump_error(text, len(text), "tree dump ends early")
    return stack[0][4]


class DynamicBitVector:
    """Sequence facade over the tree operations.

    A value is updated by one writer at a time; because every update
    builds a fresh tree, readers holding an old tree are unaffected.
    """

    def __init__(self, bits: Iterable[int] = (), bounds: SizeBounds = DEFAULT_BOUNDS):
        self.bounds = bounds
        self.tree: DTree = from_bits(bits, self.bounds)

    def __len__(self) -> int:
        return dsize(self.tree)

    def insert(self, i: int, b: int) -> None:
        self.tree = dinsert(self.tree, b, i, self.bounds)

    def delete(self, i: int) -> None:
        self.tree = ddelete(self.tree, i, self.bounds)

    def set(self, i: int) -> bool:
        old, self.tree = self.tree, dset(self.tree, i)
        return self.tree is not old

    def clear(self, i: int) -> bool:
        old, self.tree = self.tree, dclear(self.tree, i)
        return self.tree is not old

    def rank(self, i: int) -> int:
        return drank(self.tree, i)

    def select1(self, k: int) -> int:
        return dselect1(self.tree, k)

    def select0(self, k: int) -> int:
        return dselect0(self.tree, k)

    def access(self, i: int) -> int:
        return daccess(self.tree, i)

    def to_bits(self) -> list[int]:
        return dflatten(self.tree)

    def dump(self) -> str:
        return dump(self.tree)
