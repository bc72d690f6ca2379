"""Span tracing around the calls one layer makes into another.

A ``Tracer`` replaces a function or method under the name its caller
looks up (a module attribute such as ``succinct.louds.rank``, or a class
attribute such as ``Louds.parent``) with a wrapper that records a span:
name, start, end and the index of the enclosing span.  Self time is a
span's duration minus the time covered by its direct children.  Spans
are recorded only while ``active`` is set, which the workloads do around
each timed operation, so checks and input generation stay out of the
trace.  Nothing in the program is edited; ``restore`` puts every
original back.
"""

from __future__ import annotations

import functools
from time import perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.absent: list[str] = []
        self._spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        """Trace ``owner.attr`` as span ``name`` (its layer is the part
        before the first dot); a missing attribute is noted as absent."""
        raw = vars(owner).get(attr)
        if raw is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        setattr(owner, attr, kind(traced) if kind else traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def take(self) -> list[tuple[str, float, float]]:
        """Spans recorded since the last take, as (name, duration, self
        time), and forget them."""
        spans, self._spans[:] = list(self._spans), []
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(name, end - start, end - start - covered[k])
                for k, (name, start, end, parent) in enumerate(spans)]


def install(tracer: Tracer, succinct) -> None:
    """Wrap the public functions of each layer under the names their
    callers look up.  ``oracle`` is the reference, not a measured layer;
    its calls from ``verify`` are traced as the ``oracle`` span family."""
    louds, dynamic, verify, cli = succinct.louds, succinct.dynamic, succinct.verify, succinct.cli
    for fn in ("rank", "select", "succ", "pred"):
        tracer.wrap(louds, fn, f"bitvec.{fn}")
    for fn in ("rank", "select", "parse_bits", "format_bits"):
        tracer.wrap(dynamic, fn, f"bitvec.{fn}")

    tracer.wrap(louds, "parse_tree", "louds.parse")
    for method in ("encode", "children", "child", "parent"):
        tracer.wrap(louds.Louds, method, f"louds.{method}")

    vector = dynamic.DynamicBitVector
    for method in ("insert", "delete", "set", "clear", "rank", "select0", "select1", "access"):
        tracer.wrap(vector, method, f"dynamic.{method}")
    tracer.wrap(dynamic, "from_bits", "dynamic.from_bits")
    for fn, op in (("dinsert", "insert"), ("ddelete", "delete"), ("dset", "set"),
                   ("dclear", "clear"), ("drank", "rank"), ("dselect0", "select0"),
                   ("dselect1", "select1"), ("daccess", "access"), ("dflatten", "flatten")):
        tracer.wrap(verify, fn, f"dynamic.{op}")
    for fn in ("parse_dump", "dump"):
        tracer.wrap(cli, fn, f"dynamic.{fn}")

    tracer.wrap(verify.ScriptRunner, "__init__", "verify.init")
    tracer.wrap(verify.ScriptRunner, "step", "verify.step")
    for fn in ("oracle_rank", "oracle_select", "insert1", "delete_at", "update_at"):
        tracer.wrap(verify, fn, f"oracle.{fn}")

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "parse_script", "cli.parse_script")
