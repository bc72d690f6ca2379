import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from samples import LOUDS21_TEXT, TREE10_TEXT, del_borrow_sample
from succinct import dump
from succinct.dynamic import RED, Leaf, Node
from succinct.louds import Louds, number_of_nodes
from succinct.cli import main, parse_script, ScriptError
from succinct.verify import OPS, ScriptRunner, VerifyError, random_script, random_tree
from succinct import DynamicBitVector, SizeBounds, format_tree, from_bits


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text(TREE10_TEXT)
    return str(path)


# the environment of a child process that imports succinct from this checkout
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# what --time adds to stderr, and all it adds
TIME_LINE = re.compile(r"time: \d+\.\d{6}s\n")


class TestOneParser:
    """main reads every subcommand with the parsers built at import, each
    intermixed, and falls back to the top-level parser for usage and help."""

    @pytest.fixture
    def script(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("insert 0 1\ninsert 1 0\nrank 2\n")
        return str(path)

    def test_no_parser_is_built_per_call(self, capsys, monkeypatch, tree_file, script):
        def no_parser(*args, **kwargs):
            raise AssertionError("an argparse parser was built after import")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_parser)
        for argv, want in [
            (["louds-build", tree_file], LOUDS21_TEXT[2:]),
            (["louds-query", "parent", LOUDS21_TEXT, "--pos", "17"], "10"),
            (["dbv-run", script], "1"),
            (["verify", "--trees", "1", "--scripts", "1", "--ops", "5"], "ok"),
        ]:
            code, out, _ = run(capsys, *argv)
            assert (code, out.splitlines()[-1]) == (0, want), argv

    @pytest.mark.parametrize("command", ["louds-build", "louds-query", "dbv-run", "verify"])
    def test_positional_after_the_options(self, capsys, tree_file, script, command):
        argv, want = {
            "louds-build": (["--super-root", tree_file], LOUDS21_TEXT),
            "louds-query": (["children", "--pos", "0", "100"], "1"),
            "dbv-run": (["--verify", script], "1"),
            "verify": (["--seed", "1"], "ok"),
        }[command]
        code, out, err = run(capsys, command, *argv)
        assert (code, out.splitlines()[-1], err) == (0, want, "")

    @pytest.mark.parametrize("argv", [[], ["bogus"]], ids=["none", "unknown"])
    def test_no_subcommand_gets_the_top_level_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert capsys.readouterr().err.startswith("usage: succinct [-h] {louds-build,")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["-h"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: succinct [-h]")

    def test_unrecognized_argument_gets_the_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "x"])
        err = capsys.readouterr().err
        assert exit_.value.code == 2
        assert err.startswith("usage: succinct verify ")
        assert err.endswith("succinct verify: error: unrecognized arguments: x\n")


class TestLoudsBuild:
    def test_sample_tree_with_super_root(self, capsys, tree_file):
        code, out, _ = run(capsys, "louds-build", tree_file, "--super-root")
        assert code == 0
        assert out.strip() == LOUDS21_TEXT

    def test_sample_tree_bare(self, capsys, tree_file):
        code, out, _ = run(capsys, "louds-build", tree_file)
        assert code == 0
        assert out.strip() == LOUDS21_TEXT[2:]

    def test_single_node(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("(x)")
        code, out, _ = run(capsys, "louds-build", str(path))
        assert code == 0
        assert out.strip() == "0"

    def test_empty_file_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("  \n")
        code, _, err = run(capsys, "louds-build", str(path))
        assert code == 2
        assert "empty" in err

    def test_parse_error_reports_location(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("(a\n(b)")
        code, _, err = run(capsys, "louds-build", str(path))
        assert code == 2
        assert "line 2" in err

    def test_deep_chain(self, capsys, tmp_path):
        n = 10**4
        path = tmp_path / "chain.txt"
        path.write_text(" ".join(f"({k}" for k in range(n)) + ")" * n)
        code, out, _ = run(capsys, "louds-build", str(path))
        assert code == 0
        assert out.strip() == "10" * (n - 1) + "0"

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("(r" + " (c)" * 300 + ")", "1" * 300 + "0" * 301),
            (" ".join(f"({k}" for k in range(3000)) + ")" * 3000, "10" * 2999 + "0"),
        ],
        ids=["300-children", "3000-deep"],
    )
    def test_wide_and_deep_trees(self, capsys, tmp_path, text, expected):
        path = tmp_path / "t.txt"
        path.write_text(text)
        code, out, _ = run(capsys, "louds-build", str(path))
        assert (code, out) == (0, expected + "\n")

    def test_time_goes_to_stderr_alone(self, capsys, tree_file):
        _, plain, _ = run(capsys, "louds-build", tree_file)
        code, out, err = run(capsys, "louds-build", tree_file, "--time")
        assert (code, out) == (0, plain)
        assert TIME_LINE.fullmatch(err)

    def test_size_law_on_random_files(self, capsys, tmp_path):
        import random

        rng = random.Random(71)
        for k in range(10):
            t = random_tree(rng, rng.randint(1, 50))
            path = tmp_path / f"r{k}.txt"
            path.write_text(format_tree(t))
            code, out, _ = run(capsys, "louds-build", str(path))
            assert code == 0
            assert len(out.strip()) == 2 * number_of_nodes(t) - 1


class TestLoudsQuery:
    def test_children(self, capsys):
        code, out, _ = run(capsys, "louds-query", "children", LOUDS21_TEXT, "--pos", "17")
        assert (code, out.strip()) == (0, "1")

    def test_child(self, capsys):
        code, out, _ = run(
            capsys, "louds-query", "child", LOUDS21_TEXT, "--pos", "0", "--index", "0"
        )
        assert (code, out.strip()) == (0, "2")

    def test_parent(self, capsys):
        code, out, _ = run(capsys, "louds-query", "parent", LOUDS21_TEXT, "--pos", "17")
        assert (code, out.strip()) == (0, "10")

    @pytest.mark.parametrize("tail", [["--", LOUDS21_TEXT], [LOUDS21_TEXT]],
                             ids=["after-dashes", "after-options"])
    def test_bit_string_after_the_options(self, capsys, tail):
        code, out, err = run(capsys, "louds-query", "child", "--pos", "0", "--index", "0", *tail)
        assert (code, out, err) == (0, "2\n", "")

    def test_bits_from_file(self, capsys, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text(LOUDS21_TEXT)
        code, out, _ = run(
            capsys, "louds-query", "children", "--bits-file", str(path), "--pos", "2"
        )
        assert (code, out.strip()) == (0, "3")

    @pytest.mark.parametrize("op", ["children", "parent"])
    def test_index_is_rejected_outside_child(self, capsys, op):
        code, out, err = run(
            capsys, "louds-query", op, "1110110011100001000", "--pos", "0", "--index", "7"
        )
        assert (code, out, err) == (2, "", "error: --index only applies to child\n")

    def test_child_requires_an_index(self, capsys):
        code, out, err = run(capsys, "louds-query", "child", LOUDS21_TEXT, "--pos", "0")
        assert (code, out, err) == (2, "", "error: child requires --index\n")

    def test_invalid_position_is_rejected(self, capsys):
        code, _, err = run(capsys, "louds-query", "children", LOUDS21_TEXT, "--pos", "1")
        assert code == 2
        assert "position" in err

    def test_negative_position_is_rejected(self, capsys):
        code, out, err = run(capsys, "louds-query", "children", "11000", "--pos", "-1")
        assert (code, out) == (2, "")
        assert err == "error: -1 is not a node position in this encoding\n"

    def test_malformed_bits(self, capsys):
        code, _, err = run(capsys, "louds-query", "children", "10x", "--pos", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["child", "1111", "--pos", "0", "--index", "2"],
            ["parent", "0000", "--pos", "2"],
            ["children", "0110", "--pos", "0"],
        ],
    )
    def test_bits_that_encode_no_tree_are_rejected(self, capsys, argv):
        code, out, err = run(capsys, "louds-query", *argv)
        assert (code, out) == (2, "")
        assert "not the LOUDS encoding" in err and "Traceback" not in err

    def test_verify_against_tree(self, capsys, tree_file):
        code, out, _ = run(
            capsys, "louds-query", "children", LOUDS21_TEXT, "--pos", "17", "--verify", tree_file
        )
        assert (code, out.strip()) == (0, "1")

    def test_verify_rejects_bits_of_another_tree(self, capsys, tmp_path):
        # a valid encoding whose root has as many children as A's root
        path = tmp_path / "A.tree"
        path.write_text("(a (b) (c))")
        code, out, err = run(
            capsys, "louds-query", "children", "1101000", "--pos", "0", "--verify", str(path)
        )
        assert (code, out) == (1, "")
        assert "not the encoding of" in err

    def test_verify_child_and_parent(self, capsys, tree_file):
        code, out, _ = run(
            capsys,
            "louds-query",
            "child",
            LOUDS21_TEXT,
            "--pos",
            "10",
            "--index",
            "1",
            "--verify",
            tree_file,
        )
        assert (code, out.strip()) == (0, "17")
        code, out, _ = run(
            capsys, "louds-query", "parent", LOUDS21_TEXT, "--pos", "17", "--verify", tree_file
        )
        assert (code, out.strip()) == (0, "10")

    def test_verify_catches_a_wrong_answer(self, capsys, tree_file, monkeypatch):
        child = Louds.child
        monkeypatch.setattr(Louds, "child", lambda self, v, i: child(self, v, i) + 1)
        code, out, err = run(
            capsys, "louds-query", "child", LOUDS21_TEXT, "--pos", "10", "--index", "1",
            "--verify", tree_file,
        )
        assert (code, out) == (1, "")
        assert "mismatch" in err

    @pytest.mark.parametrize(
        "text, bits, last, parent",
        [
            ("(r" + " (c)" * 300 + ")", "1" * 300 + "0" * 301, 600, 0),
            (" ".join(f"({k}" for k in range(3000)) + ")" * 3000, "10" * 2999 + "0", 5998, 5996),
        ],
        ids=["300-children", "3000-deep"],
    )
    def test_verify_on_wide_and_deep_trees(self, capsys, tmp_path, text, bits, last, parent):
        path = tmp_path / "t.txt"
        path.write_text(text)
        for op, want in (("children", 0), ("parent", parent)):
            start = time.perf_counter()
            code, out, _ = run(
                capsys, "louds-query", op, bits, "--pos", str(last), "--verify", str(path)
            )
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (0, f"{want}\n")

    @pytest.mark.parametrize("option", [["--path", "0,2,1"], ["--super-root"]])
    def test_removed_verify_options_are_usage_errors(self, capsys, tree_file, option):
        with pytest.raises(SystemExit) as exit_:
            main(["louds-query", "parent", LOUDS21_TEXT, "--pos", "17", "--verify", tree_file,
                  *option])
        captured = capsys.readouterr()
        assert (exit_.value.code, captured.out) == (2, "")
        assert "unrecognized arguments" in captured.err and "Traceback" not in captured.err

    def test_bit_string_and_bits_file_exclude_each_other(self, capsys, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text(LOUDS21_TEXT)
        code, out, err = run(
            capsys, "louds-query", "children", "0", "--bits-file", str(path), "--pos", "0"
        )
        assert (code, out) == (2, "")
        assert "bit string or --bits-file, not both" in err

    def test_bits_are_required(self, capsys):
        code, out, err = run(capsys, "louds-query", "children", "--pos", "0")
        assert (code, out) == (2, "")
        assert "provide a bit string or --bits-file" in err


class TestDbvRun:
    def test_small_script(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("insert 0 1\ninsert 1 0\nrank 2\n")
        code, out, _ = run(capsys, "dbv-run", str(path))
        assert (code, out.strip()) == (0, "1")

    def test_query_outputs_one_per_line(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("insert 0 1\ninsert 1 0\nrank 2\nselect1 1\naccess 1\n")
        code, out, _ = run(capsys, "dbv-run", str(path))
        assert code == 0
        assert out.splitlines() == ["1", "1", "0"]

    def test_time_goes_to_stderr_alone(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("insert 0 1\ninsert 1 0\nrank 2\nselect0 1\n")
        _, plain, _ = run(capsys, "dbv-run", str(path), "--dump")
        code, out, err = run(capsys, "dbv-run", str(path), "--dump", "--time")
        assert (code, out) == (0, plain)
        assert TIME_LINE.fullmatch(err)

    def test_unknown_op_aborts_with_line_number(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("insert 0 1\nfrobnicate 2\n")
        code, _, err = run(capsys, "dbv-run", str(path))
        assert code == 2
        assert "line 2" in err

    def test_invalid_index_aborts_with_line_number(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("insert 0 1\ndelete 5\n")
        code, _, err = run(capsys, "dbv-run", str(path))
        assert code == 2
        assert "line 2" in err

    def test_non_integer_argument_aborts_with_line_number(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("rank x\n")
        code, out, err = run(capsys, "dbv-run", str(path))
        assert (code, out) == (2, "")
        assert "line 1: non-integer argument" in err

    @pytest.mark.parametrize("bounds", ["8", "a,b", "1,2,3"])
    def test_malformed_bounds_are_usage_errors(self, capsys, tmp_path, bounds):
        path = tmp_path / "s.txt"
        path.write_text("rank 0\n")
        with pytest.raises(SystemExit) as exit_:
            main(["dbv-run", str(path), "--bounds", bounds])
        captured = capsys.readouterr()
        assert (exit_.value.code, captured.out) == (2, "")
        assert f"bad bounds {bounds!r}" in captured.err
        assert "low,high" in captured.err

    def test_init_bits(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("rank 4\n")
        code, out, _ = run(capsys, "dbv-run", str(path), "--init", "1101", "--bounds", "8,32")
        assert (code, out.strip()) == (0, "3")

    def test_init_and_init_tree_are_exclusive(self, tmp_path):
        script = tmp_path / "s.txt"
        script.write_text("rank 1\n")
        init = tmp_path / "init.txt"
        init.write_text('(leaf "1")')
        argv = ["dbv-run", str(script), "--init", "0", "--init-tree", str(init)]
        done = subprocess.run(
            [sys.executable, "-m", "succinct.cli", *argv], capture_output=True, text=True,
            env=SUBPROCESS_ENV,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert "not allowed with argument" in done.stderr
        assert "Traceback" not in done.stderr

    def test_closed_stdout_exits_2_without_a_traceback(self, tmp_path):
        # 10^4 answers and the dump come to far more than a pipe holds, so
        # the command is still printing when the reader goes away
        script = tmp_path / "s.txt"
        script.write_text("rank 50000\n" * 10**4)
        argv = ["dbv-run", str(script), "--init", "01" * 50000, "--dump"]
        proc = subprocess.Popen([sys.executable, "-m", "succinct.cli", *argv], env=SUBPROCESS_ENV,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"25000\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (2, "")

    def test_surrogate_on_the_command_line_is_a_bad_bit(self, tmp_path):
        # a byte that is not UTF-8 reaches argv as a lone surrogate
        script = tmp_path / "s.txt"
        script.write_text("rank 1\n")
        done = subprocess.run(
            [sys.executable, "-m", "succinct.cli", "dbv-run", str(script), "--init", "01\udcff"],
            capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: invalid bit character '\\udcff' at offset 2\n"

    def test_verified_random_script(self, capsys, tmp_path):
        import random

        ops = random_script(random.Random(5), 300)
        lines = [" ".join(str(part) for part in op) for op in ops]
        path = tmp_path / "s.txt"
        path.write_text("\n".join(lines))
        code, out, _ = run(capsys, "dbv-run", str(path), "--bounds", "8,32", "--verify")
        assert code == 0

    def test_verified_ten_thousand_op_script(self, capsys, tmp_path):
        import random

        ops = random_script(random.Random(99), 10000)
        lines = [" ".join(str(part) for part in op) for op in ops]
        path = tmp_path / "s.txt"
        path.write_text("\n".join(lines))
        code, _, _ = run(capsys, "dbv-run", str(path), "--bounds", "8,32", "--verify")
        assert code == 0

    def test_underflow_delete_scenario_via_dump(self, capsys, tmp_path):
        before, after = del_borrow_sample()
        init = tmp_path / "init.txt"
        init.write_text(dump(before))
        script = tmp_path / "s.txt"
        script.write_text("delete 1\n")
        code, out, _ = run(
            capsys,
            "dbv-run",
            str(script),
            "--init-tree",
            str(init),
            "--bounds",
            "3,8",
            "--verify",
            "--dump",
        )
        assert code == 0
        assert out.strip() == dump(after)

    @pytest.mark.parametrize(
        "text, check",
        [
            # num=5 over two 2-bit leaves
            ('(Black num=5 ones=1 (leaf "10") (leaf "01"))', "wf_check"),
            # a leaf below and a leaf above --bounds 2,4
            ('(Black num=1 ones=1 (leaf "1") (leaf "01"))', "wf_check"),
            ('(Black num=2 ones=1 (leaf "10") (leaf "01101"))', "wf_check"),
            ('(Red num=2 ones=1 (leaf "10") (leaf "01"))', "redblack_check"),
        ],
    )
    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    def test_inconsistent_init_tree_is_rejected(self, capsys, tmp_path, text, check, verify):
        init = tmp_path / "init.txt"
        init.write_text(text)
        script = tmp_path / "s.txt"
        script.write_text("access 3\nrank 4\nselect1 2\n")
        code, out, err = run(
            capsys, "dbv-run", str(script), "--init-tree", str(init), "--bounds", "2,4", *verify
        )
        assert (code, out) == (2, "")
        assert check in err

    def test_ten_thousand_deep_init_tree_is_rejected(self, capsys, tmp_path):
        depth = 10_000
        init = tmp_path / "init.txt"
        init.write_text('(Black num=1 ones=1 (leaf "1") ' * depth + '(leaf "1")' + ")" * depth)
        script = tmp_path / "s.txt"
        script.write_text("rank 1\n")
        # consistent metadata and leaves in the window, so both checks walk
        # the whole depth; only the black heights are wrong
        code, out, err = run(
            capsys, "dbv-run", str(script), "--init-tree", str(init), "--bounds", "1,4"
        )
        assert (code, out) == (2, "")
        assert "redblack_check" in err and "Traceback" not in err

    def test_verify_catches_injected_divergence(self, capsys, tmp_path, monkeypatch):
        # make the tree-side rank lie; the oracle mirror must catch it
        monkeypatch.setattr(DynamicBitVector, "rank", lambda self, i: -1)
        path = tmp_path / "s.txt"
        path.write_text("insert 0 1\nrank 1\n")
        code, _, err = run(capsys, "dbv-run", str(path), "--verify", "--bounds", "8,32")
        assert code == 1
        assert "oracle" in err

    def test_verify_checks_the_initial_state(self, capsys, tmp_path, monkeypatch):
        import succinct.cli as cli_mod

        # a leaf beyond the upper bound, as if from_bits had built it
        monkeypatch.setattr(cli_mod, "from_bits", lambda bits, bounds: Leaf.of([1] * 100))
        path = tmp_path / "s.txt"
        path.write_text("access 0\n")
        code, out, err = run(capsys, "dbv-run", str(path), "--verify", "--init", "1",
                             "--bounds", "8,32")
        assert (code, out) == (1, "")
        assert err == "error: step 0 initial state: well-formedness lost\n"

    def test_unverified_run_does_not_check(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(DynamicBitVector, "rank", lambda self, i: -1)
        path = tmp_path / "s.txt"
        path.write_text("insert 0 1\nrank 1\n")
        code, out, _ = run(capsys, "dbv-run", str(path), "--bounds", "8,32")
        assert (code, out.strip()) == (0, "-1")


    def test_unverified_runner_keeps_no_mirror(self, monkeypatch):
        import random

        import succinct.verify as verify_mod

        ops = random_script(random.Random(17), 300)
        expected = ScriptRunner(SizeBounds(8, 32), verify=True).run(ops)

        def forbidden(*args):
            raise AssertionError("oracle called with verify off")

        for name in ("insert1", "delete_at", "update_at", "oracle_rank", "oracle_select",
                     "dflatten"):
            monkeypatch.setattr(verify_mod, name, forbidden)
        runner = ScriptRunner(SizeBounds(8, 32), verify=False)
        assert runner.run(ops) == expected
        assert runner.flat is None


NOT_UTF8 = b"\xff\xfe(a)"


class TestUnreadableInput:
    """Every path that reads a file reports a non-UTF-8 file as a usage
    error (exit 2) instead of a traceback."""

    @pytest.fixture
    def files(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(NOT_UTF8)
        script = tmp_path / "s.txt"
        script.write_text("rank 0\n")
        return str(bad), str(script)

    # the five command lines that read a file, {bad} standing for it
    commands = pytest.mark.parametrize(
        "argv",
        [
            ["louds-build", "{bad}"],
            ["louds-query", "children", "0", "--pos", "0", "--verify", "{bad}"],
            ["louds-query", "children", "--bits-file", "{bad}", "--pos", "0"],
            ["dbv-run", "{bad}"],
            ["dbv-run", "{script}", "--init-tree", "{bad}"],
        ],
        ids=["louds-build", "louds-query-verify", "louds-query-bits-file", "dbv-run-script",
             "dbv-run-init-tree"],
    )

    @commands
    def test_non_utf8_file_exits_2(self, capsys, files, argv):
        bad, script = files
        code, out, err = run(capsys, *(a.format(bad=bad, script=script) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "UTF-8" in err

    @commands
    def test_malformed_file_is_named_in_the_error(self, capsys, tmp_path, files, argv):
        """UTF-8 text that is no tree, bit string, script or dump: the
        parse error names the file it came from."""
        _, script = files
        bad = tmp_path / "malformed.txt"
        bad.write_text("(a x\n")
        code, out, err = run(capsys, *(a.format(bad=bad, script=script) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: ")


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.binary(max_size=120))
def test_arbitrary_bytes_never_crash_the_cli(capsys, tmp_path, data):
    """Arbitrary bytes as the tree file, the script file, the --init-tree
    dump and the louds-query bit string: exit 0, 1 or 2, no traceback."""
    path = tmp_path / "input"
    path.write_bytes(data)
    script = tmp_path / "script"
    script.write_text("rank 0\nselect1 1\n")
    # latin-1 maps every byte to a character; a real command line would
    # carry surrogates, which the process's stderr escapes but the capture
    # here would refuse to encode
    text = data.decode("latin-1")
    for argv in (
        ["louds-build", str(path)],
        ["louds-query", "parent", "1011000", "--pos", "4", "--verify", str(path)],
        ["dbv-run", str(path), "--bounds", "2,8"],
        ["dbv-run", str(script), "--init-tree", str(path), "--bounds", "1,8"],
        ["louds-query", "children", text, "--pos", "0"],
        ["louds-query", "child", "--pos", "2", "--index", "0", "--", text],
    ):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv


class TestVerifyCommand:
    def test_small_run_passes(self, capsys, monkeypatch):
        import succinct.cli as cli_mod

        # the second script starts from a bulk-built vector
        starts = []
        build = cli_mod.from_bits

        def spy(bits, bounds):
            starts.append((len(bits), bounds))
            return build(bits, bounds)

        monkeypatch.setattr(cli_mod, "from_bits", spy)
        code, out, _ = run(
            capsys, "verify", "--trees", "5", "--scripts", "2", "--ops", "80", "--seed", "3",
            "--bounds", "3,8",
        )
        assert code == 0
        assert "ok" in out
        assert len(starts) == 1
        size, bounds = starts[0]
        assert size > 2 * bounds.high and bounds == SizeBounds(3, 8)

    def test_mismatch_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(DynamicBitVector, "rank", lambda self, i: -1)
        code, _, err = run(capsys, "verify", "--trees", "0", "--scripts", "1", "--ops", "50")
        assert code == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--max-nodes", "0"], "--max-nodes: must be at least 1"),
            (["--ops", "-3"], "--ops: must be at least 0"),
            (["--trees", "-1"], "--trees: must be at least 0"),
            (["--scripts", "-1"], "--scripts: must be at least 0"),
            (["--bounds", "3,4"], "bad bounds '3,4': high must be at least 2*low"),
        ],
    )
    def test_bad_counts_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", *argv])
        err = capsys.readouterr().err
        assert exit_.value.code == 2
        assert "usage:" in err and message in err


class TestScriptParsing:
    def test_comments_and_blanks_are_skipped(self):
        steps = parse_script("# header\n\ninsert 0 1  # trailing\n")
        assert steps == [(3, ("insert", 0, 1))]

    def test_bad_bit_value(self):
        with pytest.raises(ScriptError):
            parse_script("insert 0 2\n")

    def test_bad_arity(self):
        with pytest.raises(ScriptError):
            parse_script("rank\n")

    def test_negative_index(self):
        with pytest.raises(ScriptError):
            parse_script("delete -1\n")

    def test_matches_the_reference_reader_on_seeded_scripts(self):
        rng = Random(21)
        words = ["insert", "delete", "set", "clear", "rank", "select0", "select1", "access",
                 "Rank", "nop", "insert2", "0", "1", "2", "17", "-1", "-0", "+3", "1_0",
                 "\u0663", "\u00b2", "0x1", "1.0", "x", "#", "# note", "1#2"]
        gaps = [" ", "  ", "\t", "\xa0", "\u3000", ""]
        ends = ["\n", "\r\n", "\r", "\x1c", "\n\n"]
        for _ in range(20_000):
            lines = []
            for _ in range(rng.randint(1, 4)):
                k = rng.choice([1, 2, 2, 2, 3, 3, 4])
                parts = [rng.choice(words[:8])] + [rng.choice(words) for _ in range(k - 1)]
                if rng.random() < 0.5:
                    parts[1:] = [str(rng.randint(-2, 9)) for _ in parts[1:]]
                line = "".join(part + rng.choice(gaps) for part in parts)
                if rng.random() < 0.2:  # a blank or comment-only line
                    line = rng.choice(["", "# rank x", "#"])
                lines.append(rng.choice(gaps) + line + rng.choice(ends))
            text = "".join(lines)
            assert outcome(parse_script, text) == outcome(reference_parse_script, text), text


def reference_parse_script(text: str) -> list[tuple[int, tuple]]:
    """``parse_script`` as written before it split each line once."""
    steps: list[tuple[int, tuple]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        name, rest = parts[0], parts[1:]
        if name not in OPS:
            raise ScriptError(lineno, f"unknown op {name!r}")
        if len(rest) != (arity := OPS[name][0]):
            raise ScriptError(lineno, f"{name} takes {arity} argument(s)")
        try:
            nums = [int(x) for x in rest]
        except ValueError:
            raise ScriptError(lineno, f"non-integer argument in {body!r}") from None
        if nums[0] < 0:
            raise ScriptError(lineno, "indices must be non-negative")
        if name == "insert" and nums[1] not in (0, 1):
            raise ScriptError(lineno, "inserted bit must be 0 or 1")
        steps.append((lineno, (name, *nums)))
    return steps


def outcome(parse, text):
    """What parse reads from text, or the message and line of its ScriptError."""
    try:
        return parse(text)
    except ScriptError as e:
        return str(e), e.lineno


class TestRunnerDivergenceDetection:
    def test_corrupted_mirror_is_detected(self):
        runner = ScriptRunner(SizeBounds(8, 32), verify=True)
        runner.step(("insert", 0, 1))
        runner.flat = [0]  # corrupt the oracle state
        with pytest.raises(VerifyError):
            runner.step(("insert", 1, 1))

    @pytest.mark.parametrize("op", [("access", 0), ("insert", 0, 1)])
    def test_failures_on_the_first_op_name_step_1(self, op):
        # a query mismatch and a contents failure number the op alike
        runner = ScriptRunner(SizeBounds(8, 32), verify=True, tree=Leaf.of([0]))
        runner.flat = [1]  # corrupt the oracle state
        with pytest.raises(VerifyError, match=r"^step 1 "):
            runner.step(op)

    @pytest.mark.parametrize("kind, bit", [("set", 1), ("clear", 0)])
    def test_update_flags_are_checked(self, monkeypatch, kind, bit):
        # the bit already holds the value, so the update must report no change
        update = getattr(DynamicBitVector, kind)
        monkeypatch.setattr(DynamicBitVector, kind, lambda self, i: update(self, i) or True)
        runner = ScriptRunner(SizeBounds(1, 2), verify=True)
        runner.step(("insert", 0, bit))
        with pytest.raises(VerifyError, match=re.escape(f"step 2 ('{kind}', 0)")):
            runner.step((kind, 0))

    def test_red_root_after_a_step_is_detected(self, monkeypatch):
        # the same bits under a red root: only the red-black check sees it
        access = DynamicBitVector.access

        def reddening_access(self, i):
            t = self.tree
            self.tree = Node(RED, t.left, t.num, t.ones, t.right)
            return access(self, i)

        bounds = SizeBounds(8, 32)
        runner = ScriptRunner(bounds, verify=True, tree=from_bits([1, 0] * 100, bounds))
        monkeypatch.setattr(DynamicBitVector, "access", reddening_access)
        with pytest.raises(VerifyError, match=r"^step 1 \('access', 0\): red-black invariant"):
            runner.step(("access", 0))

    def test_an_empty_mirror_still_verifies(self, monkeypatch):
        # with no tree the mirror starts as [], which must not read as verify off
        insert = DynamicBitVector.insert
        monkeypatch.setattr(DynamicBitVector, "insert", lambda self, i, b: insert(self, i, 1 - b))
        runner = ScriptRunner(SizeBounds(8, 32), verify=True)
        assert runner.flat == []
        with pytest.raises(VerifyError, match=r"^step 1 \('insert', 0, 1\): contents diverged"):
            runner.step(("insert", 0, 1))

    def test_bad_initial_tree_is_detected(self):
        from succinct.dynamic import Leaf

        bad = Leaf.of([1] * 100)  # beyond the leaf upper bound
        with pytest.raises(VerifyError):
            ScriptRunner(SizeBounds(8, 32), verify=True, tree=bad)


class TestRunnerStep:
    @pytest.mark.parametrize(
        "op",
        [("bogus", 0), ("dump",), ("to_bits",), ("__init__",), ("rank",), ("rank", 0, 1),
         ("insert", 0)],
    )
    def test_rejects_what_is_not_a_script_op(self, op):
        runner = ScriptRunner(SizeBounds(8, 32))
        runner.step(("insert", 0, 1))
        tree = runner.tree
        with pytest.raises(ValueError):
            runner.step(op)
        assert runner.tree is tree and runner.steps == 1


# The fuzz gate: any command line of the four subcommands, over files of
# tree text, dumps and scripts, exits 0, 1 or 2 and raises nothing else.

# bit text: pure 0/1, which _text_bits takes whole, and text with
# whitespace, stray characters or the lone surrogate that argv makes of
# byte 0xff, which it scans
fuzz_bits = st.sampled_from(["101110110011100001000", "11000", "10", "0", "1", ""]) | st.text(
    st.sampled_from("0011 \t\n\xa0x2\udcff"), max_size=12
)
fuzz_int = st.integers(-3, 24).map(str) | st.sampled_from(["x", "1.5", "", "+1", "\u0663"])
fuzz_bounds = st.sampled_from(["1,2", "2,4", "3,8", "8,32", "8", "1,2,3", "a,b", "3,4", "0,0"])
fuzz_tree = st.sampled_from([TREE10_TEXT, "(a)", "(a (b) (c))", "(a (b (c)))"]) | st.text(
    st.sampled_from("()ab \n"), max_size=14
)
# a well-formed dump, at times with one piece spliced in; the surrogate
# is written as byte 0xff, so such a file is not UTF-8
fuzz_dump = st.builds(
    lambda bits, bounds, at, piece: (text := dump(from_bits(bits, SizeBounds(*bounds))))[
        : at % (len(text) + 1)] + piece + text[at % (len(text) + 1):],
    st.lists(st.integers(0, 1), max_size=40),
    st.sampled_from([(1, 2), (2, 4), (3, 8), (8, 32)]),
    st.integers(0, 400),
    st.sampled_from(["", "", "2", " ", "\n", "x", ")", '(leaf "1")', "\udcff", "\xa0"]),
)
# script lines that parse, and lines of any op, arity or argument
fuzz_script = st.lists(
    st.sampled_from(sorted(OPS)).flatmap(
        lambda op: st.lists(st.integers(0, 12).map(str), min_size=OPS[op][0],
                            max_size=OPS[op][0]).map(lambda args: " ".join([op, *args]))
    )
    | st.tuples(st.sampled_from([*OPS, "nop"]), st.lists(fuzz_int, max_size=3)).map(
        lambda line: " ".join([line[0], *line[1]])
    ),
    max_size=5,
).map("\n".join)
# a file argument that names no file
MISSING = "@missing"
# true one time in five
flip = st.integers(0, 4).map(lambda k: k == 0)


@st.composite
def command_lines(draw):
    """argv of one command, with each file it reads named by a key of
    files, which maps the key to the file's text."""
    files = {}

    def file(text):
        files[key := f"@file{len(files)}"] = draw(text)
        return key

    def flags(*names):
        return [name for name in names if draw(st.booleans())]

    command = draw(st.sampled_from(["louds-build", "louds-query", "dbv-run", "verify"]))
    if command == "louds-build":
        return [command, file(fuzz_tree), *flags("--super-root", "--time")], files
    if command == "louds-query":
        op = draw(st.sampled_from(["children", "child", "parent"] * 3 + ["root"]))
        bits_from = draw(st.sampled_from(["argv", "argv", "file", "file", "both", "none"]))
        argv = [command, op] + ([draw(fuzz_bits)] if bits_from in ("argv", "both") else [])
        argv += ["--pos", draw(fuzz_int)]
        # --index belongs to child alone; at times it is left out or added
        argv += ["--index", draw(fuzz_int)] if (op == "child") != draw(flip) else []
        argv += ["--bits-file", file(fuzz_bits)] if bits_from in ("file", "both") else []
        argv += ["--verify", file(fuzz_tree)] if draw(st.booleans()) else []
        return argv, files
    if command == "dbv-run":
        argv = [command, MISSING if draw(flip) else file(fuzz_script)]
        init = draw(st.sampled_from(["--init", "--init", "--init-tree", "--init-tree", "both",
                                     "none"]))
        argv += ["--init", draw(fuzz_bits)] if init in ("--init", "both") else []
        argv += ["--init-tree", file(fuzz_dump)] if init in ("--init-tree", "both") else []
        argv += ["--bounds", draw(fuzz_bounds)] if draw(st.booleans()) else []
        return argv + flags("--verify", "--dump", "--time"), files
    argv = [command, "--seed", draw(fuzz_int)]
    for option, values in [("--trees", ["0", "1", "2", "-1", "x"]),
                           ("--max-nodes", ["0", "1", "5", "12"]),
                           ("--scripts", ["0", "1", "2"]), ("--ops", ["0", "5", "20", "-3"]),
                           ("--bounds", ["1,2", "3,8", "8,32", "3,4"])]:
        argv += [option, draw(st.sampled_from(values))] if draw(st.booleans()) else []
    return argv, files


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(command_lines())
def test_fuzzed_command_lines_exit_0_1_or_2(tmp_path, command):
    argv, files = command
    for key, text in files.items():
        (tmp_path / key).write_bytes(text.encode("utf-8", "surrogateescape"))
    argv = [str(tmp_path / arg) if arg in files or arg == MISSING else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
