"""Naive reference implementations used as ground truth.

Everything here is a direct transcription of the mathematical
definition, deliberately sharing no code with the main modules so a bug
cannot hide on both sides of an equivalence test.  Performance is a
non-goal.
"""

from __future__ import annotations

from collections import deque

__all__ = [
    "bfs_queue",
    "delete_at",
    "insert1",
    "oracle_count",
    "oracle_pred",
    "oracle_rank",
    "oracle_select",
    "oracle_succ",
    "update_at",
]


def oracle_count(b, s) -> int:
    total = 0
    for x in s:
        if x == b:
            total += 1
    return total


def oracle_rank(b, i: int, s) -> int:
    """Occurrences of b among the first i elements, by linear scan."""
    total = 0
    for j in range(min(i, len(s))):
        if s[j] == b:
            total += 1
    return total


def oracle_select(b, i: int, s) -> int:
    """1-based position of the i-th occurrence of b; 0 for i == 0 and
    len(s) + 1 when there are fewer than i occurrences."""
    if i == 0:
        return 0
    seen = 0
    for j, x in enumerate(s):
        if x == b:
            seen += 1
            if seen == i:
                return j + 1
    return len(s) + 1


def oracle_succ(b, y: int, s) -> int:
    """1-based position of the first b at or after 1-based index y;
    len(s) + 1 when there is none."""
    if y < 1:
        raise ValueError("succ indexes from 1")
    for j in range(y - 1, len(s)):
        if s[j] == b:
            return j + 1
    return len(s) + 1


def oracle_pred(b, y: int, s) -> int:
    """1-based position of the last b at or before 1-based index y; 0
    when there is none."""
    if y < 1:
        raise ValueError("pred indexes from 1")
    for j in range(min(y, len(s)) - 1, -1, -1):
        if s[j] == b:
            return j + 1
    return 0


def insert1(s: list, b, i: int) -> list:
    if not 0 <= i <= len(s):
        raise IndexError(f"insert position {i} out of range")
    return s[:i] + [b] + s[i:]


def delete_at(s: list, i: int) -> list:
    if not 0 <= i < len(s):
        raise IndexError(f"delete position {i} out of range")
    return s[:i] + s[i + 1 :]


def update_at(s: list, i: int, b) -> list:
    if not 0 <= i < len(s):
        raise IndexError(f"update position {i} out of range")
    return s[:i] + [b] + s[i + 1 :]


def bfs_queue(t) -> list:
    """Labels in breadth-first order via the classic queue algorithm."""
    out = []
    queue = deque([t])
    while queue:
        node = queue.popleft()
        out.append(node.label)
        queue.extend(node.children)
    return out
