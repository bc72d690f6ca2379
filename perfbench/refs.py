"""Reference computations the benchmark checks the program against.

Nothing here imports ``succinct``: the inputs, the expected answers and
the structural properties are all worked out by this module alone, so a
fault in the program cannot hide on both sides of a check.
"""

from __future__ import annotations

import enum
import gc
import sys
import types
from random import Random

# ---------------------------------------------------------------------------
# trees and their LOUDS encoding


def random_tree(rng: Random, n: int) -> list[list[int]]:
    """Children lists of a random recursive tree: node k > 0 hangs under a
    uniformly chosen earlier node, so the height grows like log n."""
    kids: list[list[int]] = [[] for _ in range(n)]
    for node in range(1, n):
        kids[rng.randrange(node)].append(node)
    return kids


def caterpillar(spine: int) -> list[list[int]]:
    """A chain of ``spine`` nodes with one extra leaf under every inner
    chain node: ``spine`` levels deep and 2 * spine - 1 nodes in all."""
    kids: list[list[int]] = [[] for _ in range(2 * spine - 1)]
    for k in range(spine - 1):
        kids[k] = [k + 1, spine + k]
    return kids


def tree_text(kids: list[list[int]]) -> str:
    """Parenthesized text ``(label child*)`` of the tree rooted at 0,
    written without recursion so any depth works."""
    out: list[str] = []
    stack: list[int | None] = [0]
    while stack:
        node = stack.pop()
        if node is None:
            out.append(")")
            continue
        out.append(f" ({node}")
        stack.append(None)
        stack.extend(reversed(kids[node]))
    return "".join(out).lstrip()


class LoudsRef:
    """Breadth-first position table of a tree.

    ``pos[k]`` is the bit offset of the description of the k-th node in
    breadth-first order; the children of that node are the consecutive
    breadth-first indices ``first[k] .. first[k] + deg[k] - 1``.
    """

    def __init__(self, kids: list[list[int]]):
        order = [0]
        for node in order:
            order.extend(kids[node])
        self.deg = [len(kids[node]) for node in order]
        self.pos: list[int] = []
        self.first: list[int] = []
        self.parent_of: list[int] = [-1] * len(order)
        offset, nxt = 0, 1
        for k, d in enumerate(self.deg):
            self.pos.append(offset)
            self.first.append(nxt)
            for c in range(nxt, nxt + d):
                self.parent_of[c] = k
            offset += d + 1
            nxt += d
        self.internal = [k for k, d in enumerate(self.deg) if d]

    def __len__(self) -> int:
        return len(self.deg)

    def encoding(self) -> list[int]:
        bits: list[int] = []
        for d in self.deg:
            bits.extend([1] * d)
            bits.append(0)
        return bits

    def children(self, k: int) -> int:
        return self.deg[k]

    def child(self, k: int, i: int) -> int:
        return self.pos[self.first[k] + i]

    def parent(self, k: int) -> int:
        return self.pos[self.parent_of[k]]


def check_encoding(bits: list[int], ref: LoudsRef) -> str | None:
    """None when ``bits`` is the reference encoding and obeys the size
    law (2n - 1 bits, n of them zero); otherwise what is wrong."""
    n = len(ref)
    if len(bits) != 2 * n - 1:
        return f"encoding of {n} nodes has {len(bits)} bits, want {2 * n - 1}"
    if bits.count(0) != n:
        return f"encoding of {n} nodes has {bits.count(0)} zeros"
    if bits != ref.encoding():
        return "encoding differs from the breadth-first 1^deg 0 reference"
    return None


# ---------------------------------------------------------------------------
# dynamic bit vectors


class FlatBits:
    """Byte-per-bit reference for the dynamic bit vector, with the
    program's conventions: rank takes a prefix length that saturates,
    select is 1-based, 0 for k == 0 and len + 1 past the last match."""

    BLOCK = 4096

    def __init__(self, bits):
        self.data = bytearray(bits)

    def __len__(self) -> int:
        return len(self.data)

    def insert(self, i: int, b: int) -> None:
        self.data.insert(i, b)

    def delete(self, i: int) -> None:
        del self.data[i]

    def put(self, i: int, b: int) -> bool:
        """Store b at i; True when the bit changed."""
        changed = self.data[i] != b
        self.data[i] = b
        return changed

    def access(self, i: int) -> int:
        return self.data[i]

    def rank1(self, i: int) -> int:
        return self.data.count(1, 0, i)

    def ones(self) -> int:
        return self.data.count(1)

    def _count(self, b: int, lo: int, hi: int) -> int:
        ones = self.data.count(1, lo, hi)
        return ones if b else hi - lo - ones

    def select(self, b: int, k: int) -> int:
        if k == 0:
            return 0
        n = len(self.data)
        for lo in range(0, n, self.BLOCK):
            hi = min(lo + self.BLOCK, n)
            c = self._count(b, lo, hi)
            if k > c:
                k -= c
                continue
            while hi - lo > 32:
                mid = (lo + hi) // 2
                c = self._count(b, lo, mid)
                if k <= c:
                    hi = mid
                else:
                    k -= c
                    lo = mid
            for j in range(lo, hi):
                if self.data[j] == b:
                    k -= 1
                    if k == 0:
                        return j + 1
        return n + 1

    def to_list(self) -> list[int]:
        return list(self.data)


READS = ("rank", "select0", "select1", "access")
WRITES = ("insert", "delete", "set", "clear")


def balanced_ops(rng: Random, per_kind: int) -> list[tuple[str, int]]:
    """One round of (kind, stratum) pairs: per_kind of each of the eight
    kinds, shuffled.  Every round holds as many inserts as deletes, so
    the size comes back to where it started."""
    plan = [(kind, j) for kind in READS + WRITES for j in range(per_kind)]
    rng.shuffle(plan)
    return plan


def draw_op(rng: Random, kind: str, stratum: int, strata: int, ref: FlatBits) -> tuple:
    """Concrete op of the given kind, valid for the reference's current
    contents.  Its position (or select ordinal) is uniformly random, drawn
    from the stratum-th of ``strata`` equal slices of the valid range, so
    each round covers the range evenly; costs grow with position today."""
    n = len(ref)
    if kind in ("insert", "rank"):
        lo, hi = 0, n + 1
    elif kind == "select1":
        lo, hi = 1, max(ref.ones(), 1) + 1
    elif kind == "select0":
        lo, hi = 1, max(n - ref.ones(), 1) + 1
    else:
        lo, hi = 0, n
    span = hi - lo
    at = lo + (stratum * span + rng.randrange(span)) // strata
    if kind == "insert":
        return (kind, at, rng.randint(0, 1))
    return (kind, at)


def apply_op(ref: FlatBits, op: tuple):
    """Apply op to the reference; the expected answer for a read, the
    changed flag for set/clear, None for insert/delete."""
    kind = op[0]
    if kind == "insert":
        ref.insert(op[1], op[2])
        return None
    if kind == "delete":
        ref.delete(op[1])
        return None
    if kind == "set":
        return ref.put(op[1], 1)
    if kind == "clear":
        return ref.put(op[1], 0)
    if kind == "rank":
        return ref.rank1(op[1])
    if kind == "select0":
        return ref.select(0, op[1])
    if kind == "select1":
        return ref.select(1, op[1])
    return ref.access(op[1])


# A red-black tree is checked in a neutral form: an internal node is
# ("node", red, num, ones, left, right) and a leaf is ("leaf", length,
# ones, bits) where bits is the leaf's 0/1 string when known.


def dump_text(leaves: list[str]) -> str:
    """Dump-format text of a perfect tree of black nodes over the given
    leaves (their count a power of two), as ``dbv-run --init-tree``
    reads it."""
    if len(leaves) & (len(leaves) - 1):
        raise ValueError("leaf count must be a power of two")
    lines: list[str] = []

    def walk(lo: int, hi: int, depth: int) -> None:
        pad = "  " * depth
        if hi - lo == 1:
            lines.append(f'{pad}(leaf "{leaves[lo]}")')
            return
        mid = (lo + hi) // 2
        left = leaves[lo:mid]
        num = sum(len(s) for s in left)
        ones = sum(s.count("1") for s in left)
        lines.append(f"{pad}(Black num={num} ones={ones}")
        walk(lo, mid, depth + 1)
        walk(mid, hi, depth + 1)
        lines[-1] += ")"

    walk(0, len(leaves), 0)
    return "\n".join(lines) + "\n"


def parse_dump_text(text: str):
    """Neutral tree of a dump-format text; raises ValueError when the text
    is not one well-formed tree."""
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            end = text.index('"', i + 1)
            tokens.append(text[i : end + 1])
            i = end + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '()"':
                j += 1
            tokens.append(text[i:j])
            i = j

    def node(p: int):
        if tokens[p] != "(":
            raise ValueError(f"expected '(' at token {p}")
        head = tokens[p + 1]
        if head == "leaf":
            bits = tokens[p + 2].strip('"')
            if set(bits) - {"0", "1"} or tokens[p + 3] != ")":
                raise ValueError(f"malformed leaf at token {p}")
            return ("leaf", len(bits), bits.count("1"), bits), p + 4
        if head not in ("Red", "Black"):
            raise ValueError(f"unknown node kind {head!r}")
        num = int(tokens[p + 2].removeprefix("num="))
        ones = int(tokens[p + 3].removeprefix("ones="))
        left, p = node(p + 4)
        right, p = node(p)
        if tokens[p] != ")":
            raise ValueError(f"expected ')' at token {p}")
        return ("node", head == "Red", num, ones, left, right), p + 1

    try:
        tree, end = node(0)
    except IndexError:
        raise ValueError("truncated tree dump") from None
    if end != len(tokens):
        raise ValueError("trailing content after the tree dump")
    return tree


def leaf_strings(tree) -> list[str]:
    """Leaf bit strings of a neutral tree, in order."""
    out: list[str] = []
    stack = [tree]
    while stack:
        t = stack.pop()
        if t[0] == "leaf":
            out.append(t[3])
        else:
            stack.append(t[5])
            stack.append(t[4])
    return out


def check_redblack(tree, low: int, high: int) -> tuple[dict, str | None]:
    """Walk a neutral tree: (shape counts, None) when it is a valid
    red-black tree whose metadata matches its leaves and whose leaves sit
    in the window low <= length < high (a lone root leaf only needs
    length < high); otherwise (counts so far, the first fault found)."""
    shape = {"leaves": 0, "bits": 0, "max_depth": 0, "black_height": 0}
    faults: list[str] = []

    def walk(t, depth: int, red_parent: bool) -> tuple[int, int, int]:
        """(bits, ones, black height) of the subtree."""
        if t[0] == "leaf":
            length = t[1]
            shape["leaves"] += 1
            shape["bits"] += length
            shape["max_depth"] = max(shape["max_depth"], depth)
            lone = depth == 0
            if length >= high or (not lone and length < low):
                faults.append(f"leaf of {length} bits outside the window [{low}, {high})")
            return length, t[2], 0
        _, red, num, ones, left, right = t
        if red and red_parent:
            faults.append(f"red node with a red parent at depth {depth}")
        lbits, lones, lbh = walk(left, depth + 1, red)
        rbits, rones, rbh = walk(right, depth + 1, red)
        if (num, ones) != (lbits, lones):
            faults.append(f"node at depth {depth} says num={num} ones={ones}, left holds {lbits}/{lones}")
        if lbh != rbh:
            faults.append(f"black heights {lbh} and {rbh} differ under depth {depth}")
        return lbits + rbits, lones + rones, lbh + (0 if red else 1)

    if tree[0] == "node" and tree[1]:
        faults.append("red root")
    shape["black_height"] = walk(tree, 0, False)[2]
    return shape, faults[0] if faults else None


# ---------------------------------------------------------------------------
# memory


def _shared(obj) -> bool:
    """Objects that belong to the interpreter, not to one structure."""
    if obj is None or obj is True or obj is False:
        return True
    if type(obj) is int:
        return -5 <= obj <= 256
    return isinstance(obj, (type, types.ModuleType, types.FunctionType,
                            types.BuiltinFunctionType, enum.Enum))


def retained_bytes(root) -> int:
    """Bytes held by every object reachable from root, each counted once,
    leaving out interpreter-wide singletons (small ints, None, classes,
    enum members).  Repeats exactly for one Python version."""
    seen: set[int] = set()
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or _shared(obj):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total
