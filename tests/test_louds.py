import copy
import gc
import itertools
import pickle
import random
import re
import time
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from samples import LOUDS21, TREE10, TREE10_TEXT
from succinct import (
    BitVector,
    Louds,
    Tree,
    TreeParseError,
    format_tree,
    louds_encode,
    parse_tree,
    with_super_root,
)
from succinct.louds import _TREE_TOKEN, _tree_of_shape, _tree_tokens, height, number_of_nodes
from succinct.oracle import bfs_queue, oracle_select
from succinct.spec import (
    children,
    children_of_forest,
    level_traversal,
    lo_fringe,
    lo_index,
    lo_traversal,
    lo_traversal_lt,
    lo_traversal_st,
    louds_lt,
    louds_position,
    mzip,
    node_description,
    subtree,
    valid_position,
)
from succinct import verify
from succinct.verify import random_tree


def _shape_to_tree(shape) -> Tree:
    counter = iter(range(10**6))

    def build(s):
        return Tree(next(counter), tuple(build(c) for c in s))

    return build(shape)


@cache
def every_forest(n: int) -> tuple[tuple, ...]:
    """Every ordered forest of n nodes in all, each a tuple of tree
    shapes, where a tree's shape is the tuple of its children's shapes."""
    if n == 0:
        return ((),)
    return tuple(
        (first, *rest)
        for k in range(1, n + 1)
        for first in every_forest(k - 1)
        for rest in every_forest(n - k)
    )


def every_tree(n: int) -> list[Tree]:
    """Every ordered tree of n nodes, Catalan(n - 1) of them, labelled in preorder."""
    return [_shape_to_tree(shape) for shape in every_forest(n - 1)]


def _chain(n: int) -> Tree:
    t = Tree(n - 1)
    for label in range(n - 2, -1, -1):
        t = Tree(label, (t,))
    return t


CHAIN3000 = _chain(3000)

shapes = st.recursive(st.just(()), lambda s: st.lists(s, min_size=1, max_size=4), max_leaves=25)
trees = shapes.map(_shape_to_tree)
level_seqs = st.lists(st.lists(st.integers(0, 9), max_size=4), max_size=5)


class TestShapeHelpers:
    def test_sample_tree_counts(self):
        assert number_of_nodes(TREE10) == 10
        assert height(TREE10) == 4

    def test_leaf(self):
        assert height(Tree("x")) == 1
        assert number_of_nodes(Tree("x")) == 1

    def test_children_of_forest_keeps_order(self):
        forest = [TREE10.children[0], TREE10.children[2]]
        labels = [t.label for t in children_of_forest(forest)]
        assert labels == [5, 6, 7, 8, 9]


class TestTraversals:
    def test_sample_level_order(self):
        assert lo_traversal(lambda n: n.label, TREE10) == list(range(1, 11))
        assert lo_traversal_st(lambda n: n.label, TREE10) == list(range(1, 11))

    def test_single_leaf(self):
        assert lo_traversal(lambda n: n.label, Tree("x")) == ["x"]
        assert level_traversal(lambda n: n.label, Tree("x")) == [["x"]]

    @given(trees)
    def test_structural_equals_iterated(self, t):
        assert lo_traversal_st(lambda n: n.label, t) == lo_traversal(lambda n: n.label, t)

    @given(trees)
    def test_traversals_match_queue_oracle(self, t):
        assert lo_traversal_st(lambda n: n.label, t) == bfs_queue(t)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("bfs_queue", "structural traversal disagrees with the queue oracle"),
            ("lo_traversal", "height-iterated traversal disagrees with the queue oracle"),
            ("lo_traversal_lt", "path-bounded traversal did not converge to the full one"),
        ],
    )
    def test_verify_catches_each_disagreeing_traversal(self, monkeypatch, name, message):
        monkeypatch.setattr(verify, name, lambda *args: [])
        with pytest.raises(verify.VerifyError, match=f"^{message}$"):
            verify.check_traversals(TREE10)

    @given(trees)
    def test_level_widths_match_forest_iteration(self, t):
        widths = []
        layer = [t]
        while layer:
            widths.append(len(layer))
            layer = [c for node in layer for c in node.children]
        assert [len(level) for level in level_traversal(lambda n: n.label, t)] == widths


class TestMzip:
    def test_identities(self):
        assert mzip([], [[1], [2]]) == [[1], [2]]
        assert mzip([[1], [2]], []) == [[1], [2]]

    def test_cons_case(self):
        assert mzip([["a"]], [["b"], ["c"]]) == [["a", "b"], ["c"]]

    @given(level_seqs, level_seqs, level_seqs)
    def test_associative(self, a, b, c):
        assert mzip(mzip(a, b), c) == mzip(a, mzip(b, c))


class TestEncoding:
    def test_sample_encoding_with_super_root(self):
        assert louds_encode(with_super_root(TREE10)) == LOUDS21

    def test_leaf_encodes_to_single_zero(self):
        assert louds_encode(Tree("x")) == [0]

    def test_node_description(self):
        assert node_description([Tree(1), Tree(2)]) == [1, 1, 0]
        assert node_description([]) == [0]

    @given(trees)
    def test_size_law(self, t):
        assert len(louds_encode(t)) == 2 * number_of_nodes(t) - 1

    @given(trees)
    def test_bit_counts(self, t):
        bits = louds_encode(t)
        n = number_of_nodes(t)
        assert bits.count(0) == n
        assert bits.count(1) == n - 1

    @given(trees)
    def test_matches_flattened_node_descriptions(self, t):
        bits = louds_encode(t)
        descriptions = lo_traversal_st(lambda node: node_description(node.children), t)
        assert type(bits) is list
        assert bits == list(itertools.chain.from_iterable(descriptions))
        assert Louds.encode(t).vector == BitVector(bits)

    def test_verify_compares_the_encoder_with_the_spec(self, monkeypatch):
        def ones_first(t):
            # keeps the size law and the bit counts, not the shape
            return sorted(louds_encode(t), reverse=True)

        monkeypatch.setattr(verify, "louds_encode", ones_first)
        with pytest.raises(verify.VerifyError, match="node descriptions"):
            verify.check_encoding(TREE10)

    @pytest.mark.parametrize(
        "description, message",
        [
            # two 0s a node: 3n - 1 bits
            (lambda kids: [1] * len(kids) + [0, 0], "^encoding of 10 nodes has 29 bits, want 19$"),
            # the right length with the 0s and 1s swapped
            (lambda kids: [0] * len(kids) + [1], "^encoding bit counts do not match"),
        ],
        ids=["size-law", "bit-counts"],
    )
    def test_verify_checks_the_size_law_and_bit_counts(self, monkeypatch, description, message):
        # the encoder agrees with the wrong spec, so only the laws can catch it
        def encode(t):
            descriptions = lo_traversal_st(lambda n: description(n.children), t)
            return [bit for d in descriptions for bit in d]

        monkeypatch.setattr(verify, "node_description", description)
        monkeypatch.setattr(verify, "louds_encode", encode)
        with pytest.raises(verify.VerifyError, match=message):
            verify.check_encoding(TREE10)

    @pytest.mark.parametrize(
        "t, expected",
        [
            (Tree("x"), [0]),
            (Tree("r", [Tree(k) for k in range(300)]), [1] * 300 + [0] * 301),
            (CHAIN3000, [1, 0] * 2999 + [0]),
        ],
        ids=["leaf", "300-children", "3000-deep"],
    )
    def test_fixed_trees(self, t, expected):
        # a degree past one byte, and a chain deeper than the recursion limit
        bits = louds_encode(t)
        assert type(bits) is list and bits == expected
        assert Louds.encode(t).vector == BitVector(expected)


class TestPositions:
    def test_valid_position_samples(self):
        assert valid_position(TREE10, [2, 1])
        assert valid_position(TREE10, [])
        assert not valid_position(TREE10, [3])

    def test_subtree_and_children(self):
        assert subtree(TREE10, [2, 1]).label == 8
        assert children(TREE10, [2, 1]) == 1
        assert children(TREE10, [0]) == 2
        assert children(TREE10, []) == 3
        assert children(Tree("x"), []) == 0

    def test_subtree_rejects_invalid_path(self):
        with pytest.raises(ValueError):
            subtree(TREE10, [0, 5])
        with pytest.raises(ValueError):
            children(TREE10, [3])

    def test_lt_nil_cases(self):
        assert lo_traversal_lt(lambda n: n.label, [TREE10], []) == []
        assert lo_traversal_lt(lambda n: n.label, [], [0, 0]) == []

    @given(trees, st.lists(st.integers(0, 5), max_size=8))
    def test_lt_converges_at_height(self, t, extra):
        path = extra + [0] * max(0, height(t) - len(extra))
        assert lo_traversal_lt(lambda n: n.label, [t], path) == lo_traversal_st(
            lambda n: n.label, t
        )

    @settings(max_examples=200)
    @given(trees, st.lists(st.integers(0, 5), max_size=5), st.lists(st.integers(0, 5), max_size=5))
    def test_lt_concatenates_through_fringe(self, t, p1, p2):
        f = lambda n: n.label
        whole = lo_traversal_lt(f, [t], p1 + p2)
        split = lo_traversal_lt(f, [t], p1) + lo_traversal_lt(f, lo_fringe([t], p1), p2)
        assert whole == split

    def test_fringe_nil_path_is_identity(self):
        assert lo_fringe([TREE10], []) == [TREE10]

    @given(trees)
    def test_fringe_empty_past_height(self, t):
        assert lo_fringe([t], [0] * height(t)) == []
        assert lo_fringe([t], [1] * (height(t) + 2)) == []

    def test_sample_position(self):
        assert louds_position([with_super_root(TREE10)], [0, 2, 1]) == 17

    def test_position_of_root_is_zero(self):
        assert louds_position([TREE10], []) == 0
        assert lo_index([TREE10], []) == 0

    @settings(max_examples=60)
    @given(trees)
    def test_position_is_select_of_index(self, t):
        # at every node: a path of height(t) zeros lies past the deepest
        # level, so louds_lt gives the whole encoding
        encoded = louds_lt([t], [0] * height(t))
        paths = [[]]
        for p in paths:  # the loop walks the paths while they grow
            paths += [p + [i] for i in range(children(t, p))]
        for p in paths:
            assert louds_position([t], p) == oracle_select(0, lo_index([t], p), encoded), p


class TestNavigation:
    def test_children_samples(self):
        nav = Louds(LOUDS21)
        assert nav.children(17) == 1
        assert nav.children(0) == 1
        assert nav.children(2) == 3

    def test_child_samples(self):
        nav = Louds(LOUDS21)
        assert nav.child(10, 1) == 17
        assert nav.child(0, 0) == 2

    def test_parent_samples(self):
        nav = Louds(LOUDS21)
        assert nav.parent(17) == 10
        assert nav.parent(2) == 0

    @settings(max_examples=100, deadline=None)
    @given(trees)
    def test_navigation_matches_tree_on_all_nodes(self, t):
        # the level-order table against the paper's path definitions at
        # every node, then Louds against the table
        nodes, positions, parents = verify.level_order(t)
        paths = [[]]
        for p in paths:  # the loop walks the paths while they grow
            paths += [p + [i] for i in range(children(t, p))]
        assert len(paths) == len(nodes)
        for p, node, v, parent in zip(paths, nodes, positions, parents):
            assert subtree(t, p) is node
            assert louds_position([t], p) == v
            assert children(t, p) == len(node.children)
            assert parent == (paths.index(p[:-1]) if p else -1)
        verify.check_navigation(t)

    @pytest.mark.parametrize(
        "t", [_chain(10**4), random_tree(random.Random(4), 10**4)], ids=["chain", "random"]
    )
    def test_check_navigation_is_linear(self, t):
        # a walk from the root per node would be quadratic in the tree size
        start = time.perf_counter()
        verify.check_navigation(t)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("method", ["children", "child", "parent"])
    def test_check_navigation_catches_an_off_by_one(self, monkeypatch, method):
        query = getattr(Louds, method)
        monkeypatch.setattr(Louds, method, lambda self, *args: query(self, *args) + 1)
        with pytest.raises(verify.VerifyError, match=method):
            verify.check_navigation(random_tree(random.Random(7), 50))


class TestCheckedLayer:
    def test_rejects_non_positions(self):
        nav = Louds(LOUDS21)
        assert not nav.is_position(1)
        with pytest.raises(ValueError):
            nav.children(1)
        with pytest.raises(ValueError):
            nav.children(21)
        for bits in (LOUDS21, [1, 1, 0, 0, 0], [0]):
            assert Louds(bits).is_position(-1) is False
            with pytest.raises(ValueError, match="^-1 is not a node position"):
                Louds(bits).children(-1)

    def test_rejects_root_parent_and_bad_child_index(self):
        nav = Louds(LOUDS21)
        with pytest.raises(ValueError, match="^the root has no parent$"):
            nav.parent(0)
        with pytest.raises(ValueError, match="^the root has no parent$"):
            Louds([0]).parent(0)
        with pytest.raises(ValueError):
            nav.child(17, 1)

    def test_encode_constructor(self):
        assert list(Louds.encode(with_super_root(TREE10)).bits) == LOUDS21

    def test_bits_view_and_content_equality(self):
        nav = Louds(LOUDS21)
        assert nav.bits == tuple(LOUDS21)
        assert len(nav) == len(LOUDS21)
        assert nav == Louds(tuple(LOUDS21)) == Louds(BitVector(LOUDS21))
        assert hash(nav) == hash(Louds.encode(with_super_root(TREE10)))
        assert nav != Louds.encode(TREE10)
        with pytest.raises(ValueError):
            Louds(LOUDS21[:-2])

    def test_accepts_exactly_the_encodings_of_trees(self):
        # every bit string of up to 13 bits against the encodings of every
        # ordered tree of up to 7 nodes
        encodings = {tuple(louds_encode(t)) for n in range(1, 8) for t in every_tree(n)}
        assert len(encodings) == 197
        accepted = set()
        for length in range(14):
            for bits in itertools.product((0, 1), repeat=length):
                try:
                    Louds(bits)
                except ValueError:
                    continue
                accepted.add(bits)
        assert accepted == encodings

    def test_every_tree_of_up_to_ten_nodes_checks(self):
        # the small scope: encoding, navigation and the traversals at every shape
        checked = 0
        for n in range(1, 11):
            for t in every_tree(n):
                verify.check_encoding(t)
                verify.check_navigation(t)
                verify.check_traversals(t)
                checked += 1
        assert checked == 6918

    def test_is_immutable(self):
        nav = Louds(LOUDS21)
        with pytest.raises(AttributeError):
            nav.vector = BitVector([0])
        with pytest.raises(AttributeError):
            nav.bits = (0,)

    @pytest.mark.parametrize("seed,n", [(1, 200), (2, 777), (3, 2000)])
    def test_matches_formulas_and_paths_on_many_words(self, seed, n):
        # every node of a tree spanning many 64-bit words
        verify.check_navigation(random_tree(random.Random(seed), n))

    def test_deep_chain_encodes_without_recursion(self):
        n = 10**4
        nav = Louds.encode(_chain(n))
        assert len(nav) == 2 * n - 1
        assert nav.bits == (1, 0) * (n - 1) + (0,)
        deepest = 2 * (n - 1)
        assert nav.children(deepest) == 0
        assert nav.parent(deepest) == deepest - 2
        assert nav.child(deepest - 2, 0) == deepest


class TestTreeText:
    def test_parse_sample(self):
        t = parse_tree(TREE10_TEXT)
        assert bfs_queue(t) == [str(k) for k in range(1, 11)]
        assert louds_encode(with_super_root(t)) == LOUDS21

    def test_whitespace_insensitive(self):
        assert parse_tree("( a(b) (c) )") == parse_tree("(a (b) (c))")

    def test_format_roundtrip(self):
        rng = random.Random(5)
        for _ in range(20):
            t = random_tree(rng, rng.randint(1, 40))
            relabeled = parse_tree(format_tree(t))
            assert bfs_queue(relabeled) == [str(x) for x in bfs_queue(t)]

    @pytest.mark.parametrize("label", ["a b", "", "x)", "(", "a\tb"])
    def test_format_rejects_labels_that_do_not_read_back(self, label):
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            format_tree(Tree("r", (Tree(label),)))

    def test_format_writes_none_as_underscore(self):
        assert format_tree(Tree(None, (Tree("a"), Tree(None)))) == "(_ (a) (_))"

    def test_format_roundtrip_on_deep_chain(self):
        n = 10**5
        t = Tree(str(n - 1))
        for label in range(n - 2, -1, -1):
            t = Tree(str(label), (t,))
        text = format_tree(t)
        assert text == "".join(f"({k} " for k in range(n - 1)) + f"({n - 1})" + ")" * (n - 1)
        got = parse_tree(text)
        assert got == t
        assert hash(got) == hash(t)
        assert got != Tree("0", (Tree("1"),))

    def test_deep_tree_compares_hashes_prints_and_copies(self):
        # a caterpillar deeper than the recursion limit: Tree's ==, hash,
        # repr, pickling and copying must walk it without recursing
        depth = 3000
        text = "(0 (x) " * depth + "(0)" + ")" * depth
        a, b = parse_tree(text), parse_tree(text)
        assert a == b and hash(a) == hash(b)
        assert a != parse_tree(text.replace("(0))", "(1))", 1))
        assert repr(a).startswith("<Tree in level order: (('0', 2), ('x', 0), ('0', 2), ")
        for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert copied is not a and copied == a and hash(copied) == hash(a)
            assert format_tree(copied) == text

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("", 1, 1),
            ("(a (b)", 1, 6),
            ("(a))", 1, 4),
            ("(a)\n(b)", 2, 1),
            ("()", 1, 2),
            (")", 1, 1),
        ],
    )
    def test_parse_errors_carry_location(self, text, line, column):
        with pytest.raises(TreeParseError) as err:
            parse_tree(text)
        assert (err.value.line, err.value.column) == (line, column)


@pytest.fixture(scope="module")
def text_of_1e5_nodes():
    return format_tree(random_tree(random.Random(26), 10**5))


def _collections_during(build, arg):
    """build(arg) and the collections that started while it ran, with the
    collector enabled and emptied just before, so that no collection is
    due on entry."""
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(hook)
    try:
        built = build(arg)
    finally:
        gc.callbacks.remove(hook)
    return built, starts


class TestCollectorPause:
    def test_builds_start_no_collection(self, text_of_1e5_nodes):
        # left running, the collector would start a pass every 700 new containers
        assert gc.isenabled()
        tree, starts = _collections_during(parse_tree, text_of_1e5_nodes)
        assert starts == [] and number_of_nodes(tree) == 10**5
        # called directly: pickle.loads builds the shape's tuples before the call
        rebuilt, starts = _collections_during(_tree_of_shape, tree._shape())
        assert starts == [] and rebuilt == tree

    @pytest.mark.parametrize(
        "build, good, bad",
        [(parse_tree, "(a (b))", "(a (b)"), (_tree_of_shape, (("a", 1), ("b", 0)), (("a",),))],
        ids=["parse_tree", "_tree_of_shape"],
    )
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_builds_leave_the_collector_as_found(self, build, good, bad, enabled):
        (gc.enable if enabled else gc.disable)()
        try:
            assert build(good) == Tree("a", [Tree("b")])
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError):
                build(bad)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


def _reference_random_tree(rng: random.Random, n: int) -> Tree:
    """The loop ``random_tree`` built its tree with before it handed the
    level-order shape to ``_tree_of_shape``: one ``Tree`` per node, from
    the last back, with the same draws."""
    kids: list[list[int]] = [[] for _ in range(n)]
    for node in range(1, n):
        kids[rng.randrange(node)].append(node)
    built: list[Tree | None] = [None] * n
    for node in range(n - 1, -1, -1):
        built[node] = Tree(node, (built[c] for c in kids[node]))
    return built[0]


@pytest.mark.parametrize("n", [1, 2, 7, 100, 5000])
def test_random_tree_matches_the_loop_it_replaced(n):
    for seed in range(5):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        assert random_tree(rng, n) == _reference_random_tree(reference_rng, n)
        assert rng.getstate() == reference_rng.getstate()


_REFERENCE_TOKEN = re.compile(r"[()]|[^\s()]+")


def _reference_parse_tree(text: str) -> Tree:
    """The regex-token parser that the one-split ``parse_tree`` replaced,
    kept as the reference for its trees, messages and locations."""

    def error(k: int, message: str) -> TreeParseError:
        at = next(itertools.islice(_REFERENCE_TOKEN.finditer(text), k, None)).start()
        return TreeParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))

    tokens = _REFERENCE_TOKEN.findall(text)
    if not tokens:
        raise TreeParseError("empty input", 1, 1)
    stack: list[tuple[str, list[Tree]]] = []
    root: Tree | None = None
    pos, end = 0, len(tokens)
    while pos < end:
        token = tokens[pos]
        if root is not None:
            raise error(pos, "trailing content after tree")
        if token == "(":
            if pos + 1 == end or tokens[pos + 1] in "()":
                raise error(min(pos + 1, end - 1), "expected a label after '('")
            stack.append((tokens[pos + 1], []))
            pos += 2
        elif token == ")":
            if not stack:
                raise error(pos, "unbalanced ')'")
            node = Tree(*stack.pop())
            if stack:
                stack[-1][1].append(node)
            else:
                root = node
            pos += 1
        else:
            raise error(pos, f"unexpected token {token!r}")
    if root is None:
        raise error(end - 1, "unexpected end of input")
    return root


def _parse_outcome(parse, text: str):
    """The parsed tree, or the parse error's message, line and column."""
    try:
        return parse(text)
    except TreeParseError as err:
        return str(err), err.line, err.column


def test_parse_tree_matches_reference_on_every_short_text():
    # every string of up to 6 characters over parentheses, a label
    # character and three kinds of whitespace: 55,987 texts
    texts = ("".join(chars) for k in range(7) for chars in itertools.product("()a \n\xa0", repeat=k))
    count = 0
    for text in texts:
        assert _parse_outcome(parse_tree, text) == _parse_outcome(_reference_parse_tree, text), text
        count += 1
    assert count == 55_987


def test_split_tokens_equal_regex_tokens_at_every_whitespace():
    spaces = [c for c in map(chr, range(0x110000)) if c.isspace() or re.fullmatch(r"\s", c)]
    assert " " in spaces and "\x1c" in spaces and "\u3000" in spaces
    for c in spaces:
        text = f"(a{c}(b){c})"
        assert _tree_tokens(text) == _TREE_TOKEN.findall(text) == ["(", "a", "(", "b", ")", ")"]
    # every code point in one text: one classified differently would split or join a token
    every = "".join(map(chr, range(0x110000)))
    assert _tree_tokens(every) == _TREE_TOKEN.findall(every)


TEXT_LABELS = st.text(alphabet="ab_ ()", max_size=3)
TEXT_TREES = st.recursive(
    st.builds(Tree, TEXT_LABELS),
    lambda kids: st.builds(Tree, TEXT_LABELS, st.lists(kids, max_size=3).map(tuple)),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(TEXT_TREES)
def test_format_tree_raises_or_round_trips(t):
    readable = all(label and not set(label) & set(" ()") for label in bfs_queue(t))
    try:
        text = format_tree(t)
    except ValueError:
        assert not readable
    else:
        assert readable and parse_tree(text) == t
