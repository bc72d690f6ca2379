"""The paper's other formulations of level-order traversal and LOUDS.

``louds.louds_encode`` computes the encoding in one queue pass.  The
definitions here are what it must equal, and the tests and ``verify``
check it against them: the height-iterated ``lo_traversal``, the
structurally recursive ``level_traversal`` over the ``mzip`` monoid, and
the unary ``node_description`` whose level-order concatenation is the
encoding.

Positions in the inductive tree are paths: lists of 0-based child
indices from the root.  ``lo_traversal_lt`` produces the prefix of the
breadth-first traversal preceding a path's node, which is what makes
path <-> bit-offset conversion (``louds_position``) definable.  Nothing
here is on a hot path.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Sequence

from .louds import Path, Tree, height

__all__ = [
    "Forest",
    "children",
    "children_of_forest",
    "level_traversal",
    "lo_fringe",
    "lo_index",
    "lo_traversal",
    "lo_traversal_lt",
    "lo_traversal_st",
    "louds_lt",
    "louds_position",
    "mzip",
    "node_description",
    "subtree",
    "valid_position",
]

Forest = Sequence[Tree]


def children_of_forest(f: Forest) -> list[Tree]:
    return [c for t in f for c in t.children]


def lo_traversal(f_map: Callable[[Tree], Any], t: Tree) -> list:
    """Breadth-first node images, by iterating height-many times on a forest."""
    out: list = []
    forest: list[Tree] = [t]
    for _ in range(height(t)):
        out.extend(f_map(node) for node in forest)
        forest = children_of_forest(forest)
    return out


def mzip(l: list[list], r: list[list]) -> list[list]:
    """Zip two level sequences by concatenating corresponding levels.

    The longer tail is passed through unchanged, which makes mzip an
    associative monoid with [] as its neutral element.
    """
    if not l:
        return r
    if not r:
        return l
    n = min(len(l), len(r))
    out = [l[k] + r[k] for k in range(n)]
    out.extend(l[n:] if len(l) > n else r[n:])
    return out


def level_traversal(f_map: Callable[[Tree], Any], t: Tree) -> list[list]:
    """Structurally recursive traversal: one inner list per tree level."""
    rest: list[list] = []
    for child in reversed(t.children):
        rest = mzip(level_traversal(f_map, child), rest)
    return [[f_map(t)]] + rest


def lo_traversal_st(f_map: Callable[[Tree], Any], t: Tree) -> list:
    """Flattened ``level_traversal``; equal to ``lo_traversal``."""
    return list(chain.from_iterable(level_traversal(f_map, t)))


def node_description(f: Forest) -> list[int]:
    """Unary degree code of a node with the given children: 1^k followed by 0."""
    return [1] * len(f) + [0]


def valid_position(t: Tree, p: Path) -> bool:
    """True when each path step addresses an existing child."""
    node = t
    for step in p:
        if not 0 <= step < len(node.children):
            return False
        node = node.children[step]
    return True


def subtree(t: Tree, p: Path) -> Tree:
    node = t
    for depth, step in enumerate(p):
        if not 0 <= step < len(node.children):
            raise ValueError(f"invalid path step {step} at depth {depth}")
        node = node.children[step]
    return node


def children(t: Tree, p: Path) -> int:
    """Child count of the node addressed by p."""
    return len(subtree(t, p).children)


def _lo_walk(s: Forest, p: Path) -> tuple[list[Tree], list[Tree]]:
    """The traversal queue consumed along p: the nodes output before p's
    node, and the queue left over.

    The node reached so far sits at the queue front; a step n outputs
    every queued node plus the front's first n children, then continues
    with the remaining children and the children of everything just
    output.  An empty queue ends the walk early.
    """
    out: list[Tree] = []
    queue = list(s)
    for n in p:
        if not queue:
            break
        kids = list(queue[0].children)
        first = kids[:n]
        out += queue + first
        queue = kids[n:] + children_of_forest(queue[1:] + first)
    return out, queue


def lo_traversal_lt(f_map: Callable[[Tree], Any], s: Forest, p: Path) -> list:
    """Breadth-first traversal up to (excluding) the node addressed by p.

    The path need not be valid; once it is at least as long as the
    height, the output is the complete traversal.
    """
    return [f_map(node) for node in _lo_walk(s, p)[0]]


def lo_fringe(s: Forest, p: Path) -> list[Tree]:
    """Queue state after consuming p: the forest generating the rest of
    the traversal."""
    return _lo_walk(s, p)[1]


def lo_index(s: Forest, p: Path) -> int:
    """Number of nodes preceding p in traversal order (0-based)."""
    return len(_lo_walk(s, p)[0])


def louds_lt(s: Forest, p: Path) -> list[int]:
    """The encoding's bits before p's node: the descriptions of the
    nodes ``lo_traversal_lt`` outputs."""
    return list(chain.from_iterable(node_description(t.children) for t in _lo_walk(s, p)[0]))


def louds_position(s: Forest, p: Path) -> int:
    """0-based bit offset of p's node description in the encoding."""
    return len(louds_lt(s, p))
