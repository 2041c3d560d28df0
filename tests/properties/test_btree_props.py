"""Property tests: the B+tree behaves like a sorted dict, and every page
image it edits is byte-identical to a from-scratch serialisation."""

import struct

from hypothesis import given, settings, strategies as st

from repro.sqlstate.btree import BTree, _parse
from repro.sqlstate.pager import Pager
from repro.sqlstate.vfs import MemoryVfsFile

keys = st.binary(min_size=1, max_size=24)
values = st.binary(max_size=48)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys, values),
        st.tuples(st.just("delete"), keys, st.just(b"")),
    ),
    max_size=150,
)


def fresh_tree():
    pager = Pager(MemoryVfsFile(), page_size=512)
    pager.begin()
    return BTree.create(pager)


@given(ops=operations)
@settings(max_examples=50, deadline=None)
def test_matches_dict_model(ops):
    tree = fresh_tree()
    model: dict[bytes, bytes] = {}
    for op, key, value in ops:
        if op == "insert":
            tree.insert(key, value)
            model[key] = value
        else:
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
    for key, value in model.items():
        assert tree.get(key) == value
    assert tree.count() == len(model)


@given(ops=operations)
@settings(max_examples=50, deadline=None)
def test_scan_yields_sorted_unique_keys(ops):
    tree = fresh_tree()
    model: dict[bytes, bytes] = {}
    for op, key, value in ops:
        if op == "insert":
            tree.insert(key, value)
            model[key] = value
        else:
            tree.delete(key)
            model.pop(key, None)
    scanned = [key for key, _value in tree.scan()]
    assert scanned == sorted(model)


@given(
    entries=st.dictionaries(keys, values, max_size=80),
    start=keys,
)
@settings(max_examples=50, deadline=None)
def test_scan_from_start_key(entries, start):
    tree = fresh_tree()
    for key, value in entries.items():
        tree.insert(key, value)
    scanned = [key for key, _value in tree.scan(start_key=start)]
    assert scanned == sorted(k for k in entries if k >= start)


@given(entries=st.dictionaries(keys, values, min_size=1, max_size=120))
@settings(max_examples=30, deadline=None)
def test_persistence_roundtrip(entries):
    file = MemoryVfsFile()
    pager = Pager(file, page_size=512)
    pager.begin()
    tree = BTree.create(pager)
    for key, value in entries.items():
        tree.insert(key, value)
    pager.commit()
    reopened = BTree(Pager(file, page_size=512), tree.root_page)
    for key, value in entries.items():
        assert reopened.get(key) == value


# -- byte identity -----------------------------------------------------------------
#
# The write path cuts the next page image out of the current one.  The
# oracle is the entry-by-entry serialiser the engine used to run on every
# write; it lives here now.


def reference_image(node, page_size: int) -> bytes:
    """Serialise a parsed node from scratch: header, cells in key order,
    zero tail."""
    parts = [struct.pack(">BHI", 1 if node.leaf else 2, len(node.keys), node.link)]
    for key, val in zip(node.keys, node.vals):
        parts.append(struct.pack(">H", len(key)))
        parts.append(key)
        if node.leaf:
            parts.append(struct.pack(">I", len(val)))
            parts.append(val)
        else:
            parts.append(struct.pack(">I", val))
    raw = b"".join(parts)
    assert len(raw) <= page_size
    return raw + bytes(page_size - len(raw))


def node_state(node):
    return (node.leaf, node.link, node.keys, node.vals, node.used, node.raw)


def check_tree_images(tree: BTree) -> int:
    """Every page reachable from the root equals the reference
    serialisation of its own entries, ends in zeroes, and — where the
    pager holds a parsed node for it — re-parses to that node.  Returns
    the tree's depth."""
    pager = tree.pager
    depth = 0
    level = [tree.root_page]
    while level:
        depth += 1
        below = []
        for page_no in level:
            raw = pager.get(page_no)
            node = _parse(raw)
            assert raw == reference_image(node, pager.page_size)
            assert raw[node.used :] == bytes(pager.page_size - node.used)
            assert node.keys == sorted(set(node.keys))
            cached = pager.cached_node(page_no)
            if cached is not None:
                assert node_state(cached) == node_state(node)
                assert cached.raw is raw  # the pager's object, not a copy
            if not node.leaf:
                below += [node.link, *node.vals]
        level = below
    return depth


def wide_key(i: int) -> bytes:
    return b"key-%020d" % i


edits = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "smaller", "equal", "larger", "delete"]),
        st.integers(0, 399),  # which key: a new one to insert, else the n-th present
        st.integers(0, 140),  # value size
    ),
    max_size=300,
)


def run_edits(program, bulk: int):
    """Apply ``program`` after ``bulk`` three-to-a-leaf inserts (enough of
    them and the interiors split and the root grows twice); check the
    images as it goes, and at the end that a fresh pager — no parsed
    nodes, only the committed bytes — reads the same tree.  Returns the
    depth."""
    file = MemoryVfsFile()
    pager = Pager(file, page_size=512)
    pager.begin()
    tree = BTree.create(pager)
    model: dict[bytes, bytes] = {}
    for i in range(bulk):
        key = wide_key(1000 + 7 * i % bulk)
        tree.insert(key, bytes([i % 251]) * 120)
        model[key] = bytes([i % 251]) * 120
    for step, (op, pick, size) in enumerate(program):
        if op == "insert" or not model:
            key, value = wide_key(pick), bytes([step % 251]) * size
        else:
            key = sorted(model)[pick % len(model)]
            old = len(model[key])
            new = {"smaller": old // 2, "equal": old, "larger": old + size + 1}.get(op)
            value = None if new is None else bytes([step % 251]) * min(new, 400)
        if value is None:
            assert tree.delete(key)
            del model[key]
        else:
            tree.insert(key, value)
            model[key] = value
        if step % 16 == 0:
            check_tree_images(tree)
    depth = check_tree_images(tree)
    assert list(tree.scan()) == sorted(model.items())
    pager.commit()
    reopened = BTree(Pager(file, page_size=512), tree.root_page)
    assert check_tree_images(reopened) == depth
    assert list(reopened.scan()) == sorted(model.items())
    return depth


@given(program=edits, bulk=st.sampled_from([0, 0, 12, 200]))
@settings(max_examples=40, deadline=None)
def test_every_page_image_equals_the_reference_serialisation(program, bulk):
    run_edits(program, bulk)


def test_bulk_load_splits_interiors_and_grows_the_root_twice():
    assert run_edits([], bulk=200) >= 3
