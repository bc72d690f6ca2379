"""The package's public surface, the names the benchmark looks up, and
the value semantics of the tree types.

perfbench/ wraps functions and methods by the names their callers look
up; a name that moves away is only reported as absent, so these tests
pin every one of them.
"""

import copy
import dataclasses
import pickle
import types

import pytest

import succinct
from succinct import cli, dynamic, louds, spec, verify

PUBLIC = {
    "BitVector", "parse_bits", "format_bits",
    "Tree", "Louds", "TreeParseError", "parse_tree", "format_tree", "louds_encode",
    "with_super_root",
    "DynamicBitVector", "SizeBounds", "from_bits", "dump", "parse_dump",
}

SPEC = {
    "Forest", "children_of_forest", "lo_traversal", "level_traversal", "mzip",
    "lo_traversal_st", "node_description", "lo_traversal_lt", "lo_fringe", "lo_index",
    "louds_lt", "louds_position", "valid_position", "subtree", "children",
}

BENCHMARK_LOOKUPS = {
    louds: ["parse_tree"],
    louds.Louds: ["encode", "children", "child", "parent", "bits"],
    dynamic: ["from_bits", "parse_dump", "Node", "Leaf", "RED"],
    dynamic.Leaf: ["word", "length"],
    dynamic.Node: ["color", "left", "num", "ones", "right"],
    dynamic.DynamicBitVector: ["insert", "delete", "set", "clear", "rank", "select0", "select1",
                               "access", "to_bits"],
    cli: ["main", "parse_script", "parse_dump", "dump"],
    verify: ["ScriptRunner", "dflatten", "oracle_rank", "oracle_select", "insert1", "delete_at",
             "update_at"],
    verify.ScriptRunner: ["step"],
}


def test_top_level_names_are_exactly_the_public_api():
    names = {
        name
        for name, value in vars(succinct).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC
    assert sorted(succinct.__all__) == sorted(PUBLIC)


def test_every_name_the_benchmark_looks_up_resolves():
    missing = [
        f"{owner.__name__}.{name}"
        for owner, names in BENCHMARK_LOOKUPS.items()
        for name in names
        if not hasattr(owner, name)
    ]
    assert missing == []


def test_the_formulations_live_in_spec_only():
    assert set(spec.__all__) == SPEC
    assert all(hasattr(spec, name) for name in SPEC)
    assert not [name for name in SPEC if hasattr(louds, name)]


def test_node_leaf_and_tree_are_frozen_slotted_values():
    leaf = dynamic.Leaf(0b101 | 1 << 3)
    node = dynamic.Node(dynamic.BLACK, leaf, 3, 2, dynamic.Leaf(0b1 | 1 << 2))
    tree = louds.Tree("a", [louds.Tree("b"), louds.Tree()])
    for value in (leaf, node, tree):
        for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(copied) is type(value)
            assert copied == value and hash(copied) == hash(value)
        assert not hasattr(value, "__dict__")
    # a leaf is an int: its word and length are read-only views of it
    for field in ("word", "length", "bits"):
        with pytest.raises(AttributeError):
            setattr(leaf, field, 7)
    for value, field in ((node, "num"), (tree, "label")):
        changed = dataclasses.replace(value, **{field: 7})
        assert getattr(changed, field) == 7 and changed != value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, 7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, field)
        # a name that is no field is refused the same way, not with a TypeError
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, "extra", 7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, "extra")
    assert (louds.Tree().label, louds.Tree().children) == (None, ())
    assert type(tree.children) is tuple and tree.children == (louds.Tree("b"), louds.Tree(None))
