"""The benchmark's workloads.

Each workload is a closed loop, one client in one thread: it issues an
operation, waits for the answer, checks it against ``refs`` and only
then issues the next.  Inputs come from the workload's own generators,
seeded by ``--seed``.  A run is made of whole rounds, each round the
same mix of operations, so the share of failed operations is the same
in every run.

A workload provides:

- ``prepare(seed)``: make the inputs (not timed);
- ``build(rec)``: the timed set-up, checked afterwards; returns the state
  the rounds work on and the set-up time;
- ``round(state, rec)``: one round of timed, checked operations;
- ``finish(state, rec)``: the final checks; returns the shape of the
  final dynamic tree, or None;
- ``bytes_per_bit(state)`` and ``close()``.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from random import Random
from time import perf_counter, thread_time

import refs

# default leaf window of the dynamic bit vector, from_w(64): w^2/2 .. 2 w^2
LOW, HIGH = 2048, 8192


class Recorder:
    """What one pass measured and checked."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        # per-operation latencies, by the thread's CPU clock
        self.reads: list[float] = []
        self.writes: list[float] = []
        self.work_ops = 0  # operations counted by ops_per_s
        self.work_s = 0.0  # time they took
        self.timed_s = 0.0  # every timed call, set-up excluded
        self.ops = 0  # program operations timed
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.speed = None  # the Speed of the rounds being run, if any
        self._notes: set[str] = set()
        self._mark = (0, 0, 0.0, 0.0)

    def rescale(self, factors) -> None:
        """Scale every time recorded since the last rescale by the
        ``speed.Factors`` of its clock."""
        reads, writes, work_s, timed_s = self._mark
        # in place: a tick allocates nothing the program's heap would see
        for times, start in ((self.reads, reads), (self.writes, writes)):
            for k in range(start, len(times)):
                times[k] *= factors.cpu
        self.work_s = work_s + (self.work_s - work_s) * factors.wall
        self.timed_s = timed_s + (self.timed_s - timed_s) * factors.wall
        self._mark = (len(self.reads), len(self.writes), self.work_s, self.timed_s)

    def calibrate(self, force: bool = False) -> None:
        """A calibration tick of ``speed``, if one is due or ``force`` is
        on; it rescales every time recorded since the last tick."""
        if self.speed is not None:
            factors = self.speed.tick(force)
            if factors is not None:
                self.rescale(factors)

    def timed(self, fn, *args):
        """(fn(*args), wall seconds, thread CPU seconds); the tracer
        records only inside.

        Latencies are taken by the CPU clock: the library computes and
        never waits, so the two clocks differ only by the time the host
        ran something else.  On a shared 2-vCPU host that added 2 to 7
        times to the odd operation, at random, and moved each run's p99
        with it.  Rates and set-up times stay on the wall clock."""
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        try:
            start, cpu = perf_counter(), thread_time()
            result = fn(*args)
            cpu = thread_time() - cpu
            elapsed = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.active = False
        return result, elapsed, cpu

    def op(self, elapsed: float, cpu: float, write: bool = False, counted: bool = True) -> None:
        """One timed program operation, its wall and CPU time; ``counted``
        ones make ops_per_s."""
        (self.writes if write else self.reads).append(cpu)
        self.timed_s += elapsed
        self.ops += 1
        if counted:
            self.work_ops += 1
            self.work_s += elapsed

    def note(self, message: str) -> None:
        """Report each distinct fault once, the first few only."""
        if message not in self._notes and len(self._notes) < 5:
            print(f"perfbench: {message}", file=sys.stderr)
        self._notes.add(message)

    def wrong(self, message: str) -> None:
        """An operation answered, and the answer was wrong."""
        self.failed += 1
        self.correct = False
        self.note(f"wrong answer: {message}")

    def raised(self, what: str, exc: BaseException, expected: bool = False) -> None:
        """An operation raised; only an expected fault leaves ``correct``."""
        self.failed += 1
        if not expected:
            self.correct = False
        self.note(f"{what} raised {type(exc).__name__}: {exc}"[:300])

    def broken(self, message: str) -> None:
        """A set-up or final-state check failed."""
        self.correct = False
        self.note(f"check failed: {message}")


# ---------------------------------------------------------------------------


class LoudsNav:
    """Navigation on a parsed and encoded 50k-node random tree.

    Reads are ``children``/``child``/``parent`` queries at uniformly
    random nodes; they alone make ``ops_per_s``.  LOUDS has no updates,
    so its writes are rebuilds: ``Louds.encode`` of small random trees.
    Every round also tries the deep tree, a fixed caterpillar deeper
    than the interpreter's recursion limit: its encoding and its three
    queries are counted, untimed, as failed while the encoder recurses
    once per level.
    """

    name = "louds-nav"

    def __init__(self, succinct, nodes=50_000, per_kind=8, small=128, pool=512, builds=48,
                 spine=1500):
        self.louds = succinct.louds
        self.nodes, self.per_kind = nodes, per_kind
        self.small, self.pool_size, self.builds, self.spine = small, pool, builds, spine

    def prepare(self, seed: int) -> None:
        rng = Random(seed)
        kids = refs.random_tree(rng, self.nodes)
        self.text = refs.tree_text(kids)
        self.ref = refs.LoudsRef(kids)
        self.pool = []
        for _ in range(self.pool_size):
            small = refs.random_tree(rng, self.small)
            self.pool.append((self.louds.parse_tree(refs.tree_text(small)), refs.LoudsRef(small)))
        deep = refs.caterpillar(self.spine)
        self.deep = self.louds.parse_tree(refs.tree_text(deep))
        self.deep_ref = refs.LoudsRef(deep)
        self.rng = rng

    def _parse_and_encode(self):
        return self.louds.Louds.encode(self.louds.parse_tree(self.text))

    def build(self, rec: Recorder):
        encoded, elapsed, _ = rec.timed(self._parse_and_encode)
        fault = refs.check_encoding(list(encoded.bits), self.ref)
        if fault:
            rec.broken(f"50k-node tree: {fault}")
        return encoded, elapsed

    def _queries(self, encoded) -> list[tuple]:
        """One round of queries: per_kind of each kind, in random order.
        Each query's node is uniformly random, drawn by stratified
        sampling (one node from each 1/per_kind slice of the candidates)
        so every round covers the tree evenly; a query's cost grows with
        the node's position today."""
        ref, rng, m = self.ref, self.rng, self.per_kind
        candidates = {"children": range(len(ref)), "child": ref.internal,
                      "parent": range(1, len(ref))}
        queries = []
        for kind, nodes in candidates.items():
            for j in range(m):
                k = nodes[(j * len(nodes) + rng.randrange(len(nodes))) // m]
                if kind == "children":
                    queries.append((encoded.children, (ref.pos[k],), ref.children(k)))
                elif kind == "child":
                    i = rng.randrange(ref.deg[k])
                    queries.append((encoded.child, (ref.pos[k], i), ref.child(k, i)))
                else:
                    queries.append((encoded.parent, (ref.pos[k],), ref.parent(k)))
        rng.shuffle(queries)
        return queries

    def round(self, encoded, rec: Recorder) -> None:
        rng = self.rng
        for method, args, want in self._queries(encoded):
            rec.attempted += 1
            try:
                got, elapsed, cpu = rec.timed(method, *args)
            except Exception as exc:
                rec.raised(f"{method.__name__}{args}", exc)
                continue
            rec.op(elapsed, cpu)
            if got != want:
                rec.wrong(f"{method.__name__}{args} = {got}, want {want}")
        for _ in range(self.builds):
            tree, ref = self.pool[rng.randrange(len(self.pool))]
            rec.attempted += 1
            try:
                got, elapsed, cpu = rec.timed(self.louds.Louds.encode, tree)
            except Exception as exc:
                rec.raised(f"encode of a {len(ref)}-node tree", exc)
                continue
            rec.op(elapsed, cpu, write=True, counted=False)
            fault = refs.check_encoding(list(got.bits), ref)
            if fault:
                rec.wrong(f"{len(ref)}-node tree: {fault}")
        self._deep_round(rec)
        rec.rounds += 1

    def _deep_round(self, rec: Recorder) -> None:
        ref = self.deep_ref
        k = ref.internal[-1]
        queries = [("children", (ref.pos[0],), ref.children(0)),
                   ("child", (ref.pos[k], 1), ref.child(k, 1)),
                   ("parent", (ref.pos[-1],), ref.parent(len(ref) - 1))]
        rec.attempted += 1 + len(queries)
        try:
            encoded = self.louds.Louds.encode(self.deep)
        except RecursionError as exc:
            rec.raised(f"encode of the {self.spine}-deep tree", exc, expected=True)
            rec.failed += len(queries)
            return
        except Exception as exc:
            rec.raised(f"encode of the {self.spine}-deep tree", exc)
            rec.failed += len(queries)
            return
        fault = refs.check_encoding(list(encoded.bits), ref)
        if fault:
            rec.wrong(f"{self.spine}-deep tree: {fault}")
        for name, args, want in queries:
            try:
                got = getattr(encoded, name)(*args)
            except Exception as exc:
                rec.raised(f"deep-tree {name}{args}", exc)
                continue
            if got != want:
                rec.wrong(f"deep-tree {name}{args} = {got}, want {want}")

    def finish(self, encoded, rec: Recorder):
        return None

    def bytes_per_bit(self, encoded) -> float:
        return refs.retained_bytes(encoded) / len(encoded)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


def _leaf_counts(leaf) -> tuple[int, int]:
    """(bits, ones) of a leaf: a sequence of bits today; a packed leaf
    with ``word`` and ``length`` fields, as ROADMAP.md plans, is read too."""
    if hasattr(leaf, "word"):
        return leaf.length, leaf.word.bit_count()
    return len(leaf.bits), sum(1 for b in leaf.bits if b)


def neutral_tree(t, dynamic):
    """The neutral form ``refs.check_redblack`` walks, from Node/Leaf."""
    if isinstance(t, dynamic.Node):
        return ("node", t.color is dynamic.RED, t.num, t.ones,
                neutral_tree(t.left, dynamic), neutral_tree(t.right, dynamic))
    return ("leaf", *_leaf_counts(t), None)


class DbvApi:
    """The DynamicBitVector API on 10^5 random bits at the default bounds.

    Each round is 8 * per_kind ops, per_kind of each kind, at uniform
    positions: half reads (rank, select0, select1, access), half writes
    (insert, delete, set, clear).  Inserts and deletes balance within a
    round, so the size stays within per_kind of 10^5.
    """

    name = "dbv-api"

    def __init__(self, succinct, bits=100_000, per_kind=4):
        self.dynamic = succinct.dynamic
        self.size, self.per_kind = bits, per_kind

    def prepare(self, seed: int) -> None:
        self.rng = Random(seed)
        self.bits = [self.rng.getrandbits(1) for _ in range(self.size)]

    def build(self, rec: Recorder):
        vec, elapsed, _ = rec.timed(self.dynamic.DynamicBitVector, self.bits)
        if vec.to_bits() != self.bits:
            rec.broken("DynamicBitVector(bits).to_bits() differs from bits")
        return (vec, refs.FlatBits(self.bits)), elapsed

    def round(self, state, rec: Recorder) -> None:
        vec, ref = state
        rng = self.rng
        for kind, stratum in refs.balanced_ops(rng, self.per_kind):
            op = refs.draw_op(rng, kind, stratum, self.per_kind, ref)
            method = getattr(vec, kind)
            rec.attempted += 1
            try:
                got, elapsed, cpu = rec.timed(method, *op[1:])
            except Exception as exc:
                rec.raised(str(op), exc)
                continue
            want = refs.apply_op(ref, op)
            rec.op(elapsed, cpu, write=kind in refs.WRITES)
            if got != want:
                rec.wrong(f"{op} = {got}, want {want}")
        rec.rounds += 1

    def finish(self, state, rec: Recorder):
        vec, ref = state
        if vec.to_bits() != ref.to_list():
            rec.broken("final contents differ from the reference")
        shape, fault = refs.check_redblack(neutral_tree(vec.tree, self.dynamic), LOW, HIGH)
        if fault:
            rec.broken(f"final tree: {fault}")
        return shape

    def bytes_per_bit(self, state) -> float:
        return refs.retained_bytes(state[0]) / self.size

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


class DbvCli:
    """``dbv-run <script> --init-tree <dump> --dump`` through cli.main.

    The dump is a 10^5-bit tree the benchmark writes itself: 32 equal
    leaves of 3125 bits under black nodes.  Each round replays a fresh
    script of 8 * per_kind ops, mixed like dbv-api, from that dump, then
    checks every printed answer and the dumped final tree.  ``--verify``
    stays off: its cost is the checking, not the structure.
    """

    name = "dbv-cli"

    def __init__(self, succinct, leaves=32, leaf_bits=3125, per_kind=250,
                 workdir=".perfbench-work"):
        self.succinct = succinct
        self.leaves, self.leaf_bits, self.per_kind = leaves, leaf_bits, per_kind
        self.workdir = workdir
        self.dir = None

    def prepare(self, seed: int) -> None:
        self.rng = Random(seed)
        n = self.leaves * self.leaf_bits
        self.bits = [self.rng.getrandbits(1) for _ in range(n)]
        text = "".join("1" if b else "0" for b in self.bits)
        self.dump = refs.dump_text(
            [text[k : k + self.leaf_bits] for k in range(0, n, self.leaf_bits)])
        os.makedirs(self.workdir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="dbv-cli-", dir=self.workdir)
        self.dump_path = os.path.join(self.dir, "init.tree")
        self.script_path = os.path.join(self.dir, "ops.txt")
        self.empty_path = os.path.join(self.dir, "empty.txt")
        with open(self.dump_path, "w", encoding="utf-8") as fh:
            fh.write(self.dump)
        with open(self.empty_path, "w", encoding="utf-8"):
            pass
        self.last_shape = None

    def _command(self, rec: Recorder, script: str, expected: list, ref: refs.FlatBits,
                 clock=contextlib.nullcontext()):
        """Run dbv-run on script, under clock, and check its output; the
        wall time."""
        argv = ["dbv-run", script, "--init-tree", self.dump_path, "--dump"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), clock:
            code, elapsed, _ = rec.timed(self.succinct.cli.main, argv)
        if code != 0:
            rec.broken(f"dbv-run exited with {code}")
            return elapsed, False
        lines = out.getvalue().splitlines()
        answers, dumped = lines[: len(expected)], "\n".join(lines[len(expected) :])
        for k, (line, want) in enumerate(zip(answers, expected)):
            if not line.strip().lstrip("-").isdigit() or int(line) != want:
                rec.wrong(f"answer {k} of the script: {line!r}, want {want}")
        try:
            tree = refs.parse_dump_text(dumped)
        except ValueError as exc:
            rec.broken(f"--dump output does not parse: {exc}")
            return elapsed, True
        if "".join(refs.leaf_strings(tree)) != "".join(map(str, ref.data)):
            rec.broken("--dump leaves differ from the reference contents")
        shape, fault = refs.check_redblack(tree, LOW, HIGH)
        if fault:
            rec.broken(f"--dump tree: {fault}")
        self.last_shape = shape
        return elapsed, True

    def build(self, rec: Recorder):
        elapsed, _ = self._command(rec, self.empty_path, [], refs.FlatBits(self.bits))
        return None, elapsed

    def round(self, state, rec: Recorder) -> None:
        ref = refs.FlatBits(self.bits)
        ops, expected = [], []
        for kind, stratum in refs.balanced_ops(self.rng, self.per_kind):
            op = refs.draw_op(self.rng, kind, stratum, self.per_kind, ref)
            want = refs.apply_op(ref, op)
            ops.append(op)
            if kind in refs.READS:
                expected.append(want)
        with open(self.script_path, "w", encoding="utf-8") as fh:
            fh.write("".join(" ".join(map(str, op)) + "\n" for op in ops))
        rec.attempted += len(ops)
        rec.rounds += 1
        if rec.tracer is None:
            clock = _step_clock(self.succinct.verify.ScriptRunner, rec)
            _, ran = self._command(rec, self.script_path, expected, ref, clock)
        else:
            # the tracer times ScriptRunner.step itself in a traced pass
            elapsed, ran = self._command(rec, self.script_path, expected, ref)
            rec.timed_s += elapsed
            if ran:
                rec.work_s += elapsed
        if not ran:
            rec.failed += len(ops)
            return
        rec.work_ops += len(ops)
        rec.ops += len(ops)

    def finish(self, state, rec: Recorder):
        return self.last_shape

    def bytes_per_bit(self, state) -> float:
        return refs.retained_bytes(self.succinct.dynamic.parse_dump(self.dump)) / len(self.bits)

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(self.workdir)


@contextlib.contextmanager
def _step_clock(runner_cls, rec: Recorder):
    """Time ``ScriptRunner.step``, which dbv-run calls once per script op:
    each step is one read or write latency of the command, by the CPU
    clock as in ``Recorder.timed``, two clock read pairs against about a
    millisecond per step.

    A command runs for seconds, and the machine's speed drifts within
    that, so calibration ticks run between steps too, as between rounds.
    The command's own wall time goes to ``rec.work_s`` in pieces, one
    per stretch between ticks: the ticks are left out of it, and each
    piece is rescaled by the ticks around it, like the steps."""
    step = runner_cls.step
    mark = perf_counter()

    def timed_step(self, op):
        nonlocal mark
        start, cpu = perf_counter(), thread_time()
        try:
            return step(self, op)
        finally:
            cpu = thread_time() - cpu
            end = perf_counter()
            (rec.reads if op[0] in refs.READS else rec.writes).append(cpu)
            rec.timed_s += end - start
            rec.work_s += end - mark
            rec.calibrate()
            mark = perf_counter()

    runner_cls.step = timed_step
    try:
        yield
    finally:
        runner_cls.step = step
        rec.work_s += perf_counter() - mark


WORKLOADS = {cls.name: cls for cls in (LoudsNav, DbvApi, DbvCli)}
