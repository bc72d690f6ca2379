"""Randomized cross-checking against the naive oracles.

Shared by the test suite, the CLI verify modes and scripts/.  All
generators take an explicit ``random.Random`` so runs are reproducible
from a seed.  ``level_order`` is the one reference table for LOUDS
navigation: each node's bit position and parent, from one level-order
walk; ``check_navigation`` compares ``Louds`` with it at every node.
"""

from __future__ import annotations

from random import Random

from .dynamic import DTree, DynamicBitVector, SizeBounds, dflatten, redblack_check, wf_check
from .louds import Louds, Tree, _tree_of_shape, height, louds_encode, number_of_nodes
from .oracle import bfs_queue, delete_at, insert1, oracle_rank, oracle_select, update_at
from .spec import lo_traversal, lo_traversal_lt, lo_traversal_st, node_description

__all__ = [
    "OPS",
    "ScriptRunner",
    "VerifyError",
    "check_encoding",
    "check_navigation",
    "check_traversals",
    "level_order",
    "random_path",
    "random_script",
    "random_tree",
]


class VerifyError(Exception):
    """An implementation result diverged from its oracle."""


def random_tree(rng: Random, n: int) -> Tree:
    """Random n-node tree built by attaching each node to a random
    earlier one; labels are creation indices.  For a random size, draw
    n first, as ``rng.randint(1, max_nodes)``."""
    kids: list[list[int]] = [[] for _ in range(n)]
    for node in range(1, n):
        kids[rng.randrange(node)].append(node)
    order = [0]
    for node in order:  # the loop walks the level order while it grows
        order += kids[node]
    return _tree_of_shape(tuple((node, len(kids[node])) for node in order))


def random_path(rng: Random, t: Tree) -> list[int]:
    """Random valid path in t (possibly the root's empty path)."""
    path: list[int] = []
    node = t
    while node.children and rng.random() < 0.75:
        i = rng.randrange(len(node.children))
        path.append(i)
        node = node.children[i]
    return path


def check_traversals(t: Tree) -> None:
    """Level-order traversals must agree with each other and with the
    queue oracle; the path-bounded traversal must converge."""
    labels_st = lo_traversal_st(lambda n: n.label, t)
    labels_it = lo_traversal(lambda n: n.label, t)
    labels_bfs = bfs_queue(t)
    if labels_st != labels_bfs:
        raise VerifyError("structural traversal disagrees with the queue oracle")
    if labels_it != labels_bfs:
        raise VerifyError("height-iterated traversal disagrees with the queue oracle")
    converged = lo_traversal_lt(lambda n: n.label, [t], [0] * height(t))
    if converged != labels_st:
        raise VerifyError("path-bounded traversal did not converge to the full one")


def check_encoding(t: Tree) -> None:
    bits = louds_encode(t)
    descriptions = lo_traversal_st(lambda node: node_description(node.children), t)
    if bits != [bit for description in descriptions for bit in description]:
        raise VerifyError("louds_encode disagrees with the spec's node descriptions")
    n = number_of_nodes(t)
    if len(bits) != 2 * n - 1:
        raise VerifyError(f"encoding of {n} nodes has {len(bits)} bits, want {2 * n - 1}")
    if bits.count(0) != n or bits.count(1) != n - 1:
        raise VerifyError("encoding bit counts do not match the node count")


def level_order(t: Tree) -> tuple[list[Tree], list[int], list[int]]:
    """The nodes of t in ``spec.lo_traversal`` order, each node's bit
    position in the encoding (the summed ``node_description`` lengths of
    the nodes before it) and each node's parent index, -1 for the root.
    A node's children follow the children of every earlier node."""
    nodes = lo_traversal(lambda node: node, t)
    positions, parents, start = [], [-1], 0
    for k, node in enumerate(nodes):
        positions.append(start)
        start += len(node_description(node.children))
        parents += [k] * len(node.children)
    return nodes, positions, parents


def check_navigation(t: Tree) -> None:
    """children/child/parent of ``Louds.encode(t)`` must match
    ``level_order(t)`` at every node of the tree."""
    nav = Louds.encode(t)
    nodes, positions, parents = level_order(t)
    first = 1  # the level-order index of the node's first child
    for k, (node, v) in enumerate(zip(nodes, positions)):
        where = f"node {k} (bit {v})"
        _expect_nav(f"children at {where}", len(node.children), nav.children(v))
        for i in range(len(node.children)):
            _expect_nav(f"child {i} at {where}", positions[first + i], nav.child(v, i))
        first += len(node.children)
        if k:
            _expect_nav(f"parent at {where}", positions[parents[k]], nav.parent(v))


def _expect_nav(what: str, want: int, got: int) -> None:
    if got != want:
        raise VerifyError(f"{what}: Louds says {got}, oracle says {want}")


def random_script(rng: Random, n_ops: int = 200, size: int = 0) -> list[tuple]:
    """Mixed op sequence, valid against a vector of ``size`` bits and
    the size it builds up from there."""
    ops: list[tuple] = []
    for _ in range(n_ops):
        r = rng.random()
        if size == 0 or r < 0.45:
            ops.append(("insert", rng.randint(0, size), rng.randint(0, 1)))
            size += 1
        elif r < 0.60:
            ops.append(("delete", rng.randrange(size)))
            size -= 1
        elif r < 0.68:
            ops.append(("set", rng.randrange(size)))
        elif r < 0.76:
            ops.append(("clear", rng.randrange(size)))
        elif r < 0.84:
            ops.append(("rank", rng.randint(0, size)))
        elif r < 0.90:
            ops.append(("select0", rng.randint(0, size + 1)))
        elif r < 0.96:
            ops.append(("select1", rng.randint(0, size + 1)))
        else:
            ops.append(("access", rng.randrange(size)))
    return ops


# script ops, each the DynamicBitVector method of its name: the argument
# count, whether dbv-run prints the answer, and the op's meaning on the flat
# list, (flat, *args) -> (flat after, the answer the method must return)
OPS = {
    "insert": (2, False, lambda s, i, b: (insert1(s, b, i), None)),
    "delete": (1, False, lambda s, i: (delete_at(s, i), None)),
    "set": (1, False, lambda s, i: (update_at(s, i, 1), s[i] == 0)),
    "clear": (1, False, lambda s, i: (update_at(s, i, 0), s[i] == 1)),
    "rank": (1, True, lambda s, i: (s, oracle_rank(1, i, s))),
    "select0": (1, True, lambda s, k: (s, oracle_select(0, k, s))),
    "select1": (1, True, lambda s, k: (s, oracle_select(1, k, s))),
    "access": (1, True, lambda s, i: (s, s[i])),
}


class ScriptRunner:
    """Applies script ops to a ``DynamicBitVector``; with verify on, mirrors
    every op on the flat list ``flat`` (an empty one still verifies) and
    checks its answer plus the structural invariants after each step.
    With verify off ``flat`` is None: no mirror and no oracle call."""

    def __init__(self, bounds: SizeBounds, verify: bool = False, tree: DTree | None = None):
        self.vector = DynamicBitVector(bounds=bounds)
        if tree is not None:
            self.vector.tree = tree
        self.flat: list[int] | None = dflatten(self.tree) if verify else None
        self.steps = 0
        if verify and tree is not None:
            self._check_invariants("initial state")

    @property
    def tree(self) -> DTree:
        return self.vector.tree

    def run(self, ops) -> list[int]:
        return [r for r in map(self.step, ops) if r is not None]

    def step(self, op: tuple) -> int | None:
        kind = op[0]
        entry = OPS.get(kind)
        if entry is None:
            raise ValueError(f"unknown op {kind!r}")
        arity, prints, meaning = entry
        if len(op) != arity + 1:
            raise ValueError(f"{kind} takes {arity} argument(s), got {len(op) - 1}")
        method = getattr(self.vector, kind)
        result = method(op[1], op[2]) if arity == 2 else method(op[1])
        self.steps += 1
        if self.flat is not None:
            self.flat, want = meaning(self.flat, *op[1:])
            if result != want:
                raise VerifyError(f"step {self.steps} {op}: got {result}, oracle says {want}")
            self._check_invariants(op)
        return result if prints else None

    def _check_invariants(self, op) -> None:
        if dflatten(self.tree) != self.flat:
            raise VerifyError(f"step {self.steps} {op}: contents diverged from the oracle")
        if not wf_check(self.tree, self.vector.bounds):
            raise VerifyError(f"step {self.steps} {op}: well-formedness lost")
        if redblack_check(self.tree) is None:
            raise VerifyError(f"step {self.steps} {op}: red-black invariant lost")
