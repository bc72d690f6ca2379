"""Command-line front end.

Subcommands: louds-build, louds-query, dbv-run, verify.  dbv-run reads
the ops of ``verify.OPS``; ``louds-query --verify`` works out from the
bits whether its tree sits under a super root, then reads the answer
off that tree's ``verify.level_order`` table at the node of --pos.
The argparse tree is built once, at import.  main reads a subcommand's
arguments intermixed, so its positionals may come before or after its
options; read through the top level, a louds-query bit string after the
options would be left over.

Exit codes: 0 success, 1 verification mismatch, 2 usage, parse or I/O
error; a closed stdout, as when piped into ``head``, is an I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from random import Random

from .bitvec import format_bits, parse_bits
from .dynamic import (
    DEFAULT_BOUNDS,
    SizeBounds,
    dump,
    from_bits,
    parse_dump,
    redblack_check,
    wf_check,
)
from .louds import Louds, Tree, _louds_bytes, parse_tree, with_super_root
from .verify import (
    OPS,
    ScriptRunner,
    VerifyError,
    check_encoding,
    check_navigation,
    check_traversals,
    level_order,
    random_script,
    random_tree,
)


class ScriptError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_script(text: str) -> list[tuple[int, tuple]]:
    """One op per line: a name from ``verify.OPS`` and the integer arguments
    its entry counts, insert <i> <0|1>, select0 <k> and select1 <k>, the
    rest <i>.  Blank lines and #-comments are skipped."""
    steps: list[tuple[int, tuple]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        name = parts[0]
        if name not in OPS:
            raise ScriptError(lineno, f"unknown op {name!r}")
        if len(parts) != (arity := OPS[name][0]) + 1:
            raise ScriptError(lineno, f"{name} takes {arity} argument(s)")
        try:
            step = (name, int(parts[1]), int(parts[2])) if arity == 2 else (name, int(parts[1]))
        except ValueError:
            body = line.split("#", 1)[0].strip()
            raise ScriptError(lineno, f"non-integer argument in {body!r}") from None
        if step[1] < 0:
            raise ScriptError(lineno, "indices must be non-negative")
        if name == "insert" and step[2] not in (0, 1):
            raise ScriptError(lineno, "inserted bit must be 0 or 1")
        steps.append((lineno, step))
    return steps


def _bounds_arg(text: str) -> SizeBounds:
    """argparse type: leaf bounds written low,high."""
    bad = f"bad bounds {text!r}"
    try:
        low, high = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{bad}: expected two integers low,high") from None
    try:
        return SizeBounds(low, high)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"{bad}: {e}") from None


def _at_least(least: int):
    """argparse type: an int no smaller than ``least``."""

    def count(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return int(text)

    return count


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_file(path: str, parse):
    """``parse`` of the text of a UTF-8 file.  A ValueError, from the
    parser or for text that is not UTF-8, comes back naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text: {e}") from None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _cmd_louds_build(args) -> int:
    try:
        tree = _parse_file(args.tree_file, parse_tree)
    except (OSError, ValueError) as e:
        return _fail(str(e), 2)
    if args.super_root:
        tree = with_super_root(tree)
    start = time.perf_counter()
    bits = _louds_bytes(tree)
    if args.time:
        print(f"time: {time.perf_counter() - start:.6f}s", file=sys.stderr)
    print(format_bits(bits))
    return 0


def _load_bits(args) -> list[int]:
    if args.bits_file is not None:
        if args.bits is not None:
            raise ValueError("give a bit string or --bits-file, not both")
        return _parse_file(args.bits_file, parse_bits)
    if args.bits is None:
        raise ValueError("provide a bit string or --bits-file")
    return parse_bits(args.bits)


def _cmd_louds_query(args) -> int:
    if (args.op == "child") != (args.index is not None):
        return _fail("child requires --index" if args.index is None
                     else "--index only applies to child", 2)
    try:
        nav = Louds(bits := _load_bits(args))
        if args.op == "children":
            result = nav.children(args.pos)
        elif args.op == "child":
            result = nav.child(args.pos, args.index)
        else:
            result = nav.parent(args.pos)
        tree = None if args.verify is None else _parse_file(args.verify, parse_tree)
    except (OSError, ValueError) as e:
        return _fail(str(e), 2)
    if tree is not None and (error := _verify_query(args, tree, bytes(bits), result)):
        return _fail(error, 1)
    print(result)
    return 0


def _verify_query(args, tree: Tree, bits: bytes, result: int) -> str | None:
    """What is wrong with result, or None.  bits must encode tree, bare or
    under a super root; the answer is then read off that tree's
    ``level_order`` table at the node of --pos."""
    # the two encodings differ in length by 2, so at most one matches
    tree = next((t for t in (tree, with_super_root(tree)) if _louds_bytes(t) == bits), None)
    if tree is None:
        return f"the bits are not the encoding of {args.verify}, bare or under a super root"
    nodes, positions, parents = level_order(tree)
    k = positions.index(args.pos)  # a node position of bits, so it is there
    if args.op == "children":
        want = len(nodes[k].children)
    elif args.op == "child":
        want = positions[parents.index(k) + args.index]
    else:
        want = positions[parents[k]]
    if result != want:
        return f"{args.op} mismatch: encoding says {result}, oracle says {want}"


def _cmd_dbv_run(args) -> int:
    try:
        steps = _parse_file(args.script, parse_script)
        if args.init_tree is not None:
            tree = _parse_file(args.init_tree, parse_dump)
            # the updates trust num/ones, the leaf window and the colors; a
            # tree that breaks them answers wrongly instead of failing
            if not wf_check(tree, args.bounds):
                at = f"{args.bounds.low},{args.bounds.high}"
                return _fail(f"{args.init_tree}: fails wf_check at bounds {at}", 2)
            if redblack_check(tree) is None:
                return _fail(f"{args.init_tree}: fails redblack_check", 2)
        elif args.init is not None:
            tree = from_bits(parse_bits(args.init), args.bounds)
        else:
            tree = None
    except (OSError, ValueError) as e:
        return _fail(str(e), 2)
    try:
        runner = ScriptRunner(args.bounds, verify=args.verify, tree=tree)
    except VerifyError as e:
        return _fail(str(e), 1)
    start = time.perf_counter()
    for lineno, op in steps:
        try:
            result = runner.step(op)
        except VerifyError as e:
            return _fail(f"line {lineno}: {e}", 1)
        except (IndexError, ValueError) as e:
            return _fail(f"line {lineno}: {e}", 2)
        if result is not None:
            print(result)
    if args.time:
        print(f"time: {time.perf_counter() - start:.6f}s", file=sys.stderr)
    if args.dump:
        print(dump(runner.tree))
    return 0


def _cmd_verify(args) -> int:
    rng = Random(args.seed)
    try:
        for _ in range(args.trees):
            tree = random_tree(rng, rng.randint(1, args.max_nodes))
            check_traversals(tree)
            check_encoding(tree)
            check_navigation(tree)
        print(f"louds: {args.trees} trees checked")
        for k in range(args.scripts):
            # odd-numbered scripts start from a bulk build, so its shapes
            # (evenly filled leaves, a red last level) meet every repair
            tree, size = None, 0
            if k % 2:
                size = rng.randint(0, 8 * args.bounds.high)
                tree = from_bits([rng.getrandbits(1) for _ in range(size)], args.bounds)
            runner = ScriptRunner(args.bounds, verify=True, tree=tree)
            runner.run(random_script(rng, args.ops, size))
        print(f"dynamic: {args.scripts} scripts of {args.ops} ops checked")
    except VerifyError as e:
        return _fail(str(e), 1)
    print("ok")
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, for usage and help, and each subcommand's by name."""
    parser = argparse.ArgumentParser(prog="succinct")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("louds-build", help="encode a tree file as a LOUDS bit string")
    p.add_argument("tree_file", help="file holding one parenthesized tree, e.g. (a (b) (c))")
    p.add_argument("--super-root", action="store_true", help="wrap the tree under a one-child root")
    p.add_argument("--time", action="store_true", help="print encoding time to stderr")
    p.set_defaults(func=_cmd_louds_build)

    p = sub.add_parser("louds-query", help="navigate a LOUDS bit string")
    p.add_argument("op", choices=["children", "child", "parent"])
    p.add_argument("bits", nargs="?", help="ASCII bit string")
    p.add_argument("--bits-file", help="read the bit string from a file instead")
    p.add_argument("--pos", type=int, required=True, help="bit position of the node")
    p.add_argument("--index", type=int, help="child ordinal (for child)")
    p.add_argument("--verify", metavar="TREE_FILE",
                   help="cross-check against this tree, bare or under a super root")
    p.set_defaults(func=_cmd_louds_query)

    p = sub.add_parser("dbv-run", help="replay a dynamic bit vector op script")
    p.add_argument("script", help="op script file, one op per line")
    init = p.add_mutually_exclusive_group()
    init.add_argument("--init", help="initial contents as an ASCII bit string")
    init.add_argument("--init-tree", help="initial tree in the debug dump format")
    p.add_argument("--bounds", type=_bounds_arg, default=DEFAULT_BOUNDS,
                   help="leaf bounds as low,high (default w=64)")
    p.add_argument("--verify", action="store_true", help="mirror every op on the flat oracle")
    p.add_argument("--dump", action="store_true", help="print the final tree")
    p.add_argument("--time", action="store_true", help="print replay time to stderr")
    p.set_defaults(func=_cmd_dbv_run)

    p = sub.add_parser("verify", help="randomized self-check against the oracles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trees", type=_at_least(0), default=25)
    p.add_argument("--max-nodes", type=_at_least(1), default=40)
    p.add_argument("--scripts", type=_at_least(0), default=10)
    p.add_argument("--ops", type=_at_least(0), default=200)
    p.add_argument("--bounds", type=_bounds_arg, default=SizeBounds(8, 32),
                   help="leaf bounds as low,high (default 8,32)")
    p.set_defaults(func=_cmd_verify)

    return parser, sub.choices


_PARSER, _SUBCOMMANDS = _build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        command = _SUBCOMMANDS.get(argv[0]) if argv else None
        args = command.parse_intermixed_args(argv[1:]) if command else _PARSER.parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        # the reader of stdout has gone: point stdout at devnull, as the
        # signal docs' note on SIGPIPE does, so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
