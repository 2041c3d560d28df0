"""The B+tree."""

import pytest

from repro.common.errors import SqlConstraintError, SqlError
from repro.sqlstate.btree import BTree
from repro.sqlstate.engine import Database
from repro.sqlstate.pager import Pager
from repro.sqlstate.vfs import MemoryVfsFile
from tests.properties.test_btree_props import check_tree_images, node_state


def make_tree(page_size=512):
    pager = Pager(MemoryVfsFile(), page_size=page_size)
    pager.begin()
    return BTree.create(pager), pager


def key(i):
    return f"key-{i:06d}".encode()


def test_get_on_empty_tree():
    tree, _ = make_tree()
    assert tree.get(b"missing") is None


def test_insert_get_single():
    tree, _ = make_tree()
    tree.insert(b"k", b"v")
    assert tree.get(b"k") == b"v"


def test_insert_many_forces_splits_and_keeps_all():
    tree, pager = make_tree(page_size=512)
    n = 500
    for i in range(n):
        tree.insert(key(i), f"value-{i}".encode())
    assert pager.page_count > 10  # the tree really did split
    for i in range(n):
        assert tree.get(key(i)) == f"value-{i}".encode()


def test_reverse_and_shuffled_insert_orders():
    import random

    for order in ("forward", "reverse", "shuffled"):
        tree, _ = make_tree()
        indices = list(range(300))
        if order == "reverse":
            indices.reverse()
        elif order == "shuffled":
            random.Random(5).shuffle(indices)
        for i in indices:
            tree.insert(key(i), str(i).encode())
        assert [k for k, _v in tree.scan()] == [key(i) for i in range(300)]


def test_replace_existing_value():
    tree, _ = make_tree()
    tree.insert(b"k", b"old")
    tree.insert(b"k", b"new")
    assert tree.get(b"k") == b"new"
    assert tree.count() == 1


def test_insert_no_replace_raises_on_duplicate():
    tree, _ = make_tree()
    tree.insert(b"k", b"v", replace=False)
    with pytest.raises(SqlError, match="duplicate"):
        tree.insert(b"k", b"v2", replace=False)


def test_delete():
    tree, _ = make_tree()
    for i in range(100):
        tree.insert(key(i), b"v")
    assert tree.delete(key(50))
    assert tree.get(key(50)) is None
    assert not tree.delete(key(50))
    assert tree.count() == 99


def test_scan_in_order_across_leaves():
    tree, _ = make_tree()
    for i in reversed(range(400)):
        tree.insert(key(i), str(i).encode())
    keys = [k for k, _v in tree.scan()]
    assert keys == sorted(keys)
    assert len(keys) == 400


def test_scan_from_start_key():
    tree, _ = make_tree()
    for i in range(100):
        tree.insert(key(i), b"v")
    keys = [k for k, _v in tree.scan(start_key=key(95))]
    assert keys == [key(i) for i in range(95, 100)]


def test_scan_prefix():
    tree, _ = make_tree()
    tree.insert(b"a:1", b"1")
    tree.insert(b"a:2", b"2")
    tree.insert(b"b:1", b"3")
    assert [k for k, _v in tree.scan_prefix(b"a:")] == [b"a:1", b"a:2"]


def test_last_key():
    tree, _ = make_tree()
    assert tree.last_key() is None
    for i in range(250):
        tree.insert(key(i), b"v")
    assert tree.last_key() == key(249)
    tree.delete(key(249))
    assert tree.last_key() == key(248)


def test_oversized_entry_rejected():
    tree, pager = make_tree(page_size=512)
    with pytest.raises(SqlError, match="page"):
        tree.insert(b"k", b"v" * 1000)


def test_two_trees_share_one_pager():
    pager = Pager(MemoryVfsFile(), page_size=512)
    pager.begin()
    a = BTree.create(pager)
    b = BTree.create(pager)
    for i in range(100):
        a.insert(key(i), b"a")
        b.insert(key(i), b"b")
    assert a.get(key(5)) == b"a"
    assert b.get(key(5)) == b"b"


def test_persistence_across_pager_reopen():
    file = MemoryVfsFile()
    pager = Pager(file, page_size=512)
    pager.begin()
    tree = BTree.create(pager)
    root = tree.root_page
    for i in range(200):
        tree.insert(key(i), str(i).encode())
    pager.commit()
    reopened = BTree(Pager(file, page_size=512), root)
    assert reopened.get(key(123)) == b"123"
    assert reopened.count() == 200


class TestScanRange:
    def test_bounds_are_inclusive_at_the_encoded_level(self):
        tree, _ = make_tree()
        for i in range(100):
            tree.insert(key(i), str(i).encode())
        got = [k for k, _ in tree.scan_range(key(10), key(20))]
        assert got == [key(i) for i in range(10, 21)]

    def test_open_ended_high_scans_to_the_end(self):
        tree, _ = make_tree()
        for i in range(50):
            tree.insert(key(i), b"v")
        got = [k for k, _ in tree.scan_range(key(45), None)]
        assert got == [key(i) for i in range(45, 50)]

    def test_high_bound_is_prefix_inclusive(self):
        # Index keys carry a rowid suffix after the column prefix; a scan
        # bounded by the bare prefix must still yield those longer keys.
        tree, _ = make_tree()
        tree.insert(b"aa\x01", b"1")
        tree.insert(b"ab\x01", b"2")
        tree.insert(b"ac\x01", b"3")
        got = [k for k, _ in tree.scan_range(b"aa", b"ab")]
        assert got == [b"aa\x01", b"ab\x01"]

    def test_survives_splits(self):
        tree, _ = make_tree(page_size=512)
        for i in range(500):
            tree.insert(key(i), str(i).encode() * 4)
        got = [k for k, _ in tree.scan_range(key(123), key(456))]
        assert got == [key(i) for i in range(123, 457)]

    def test_empty_window(self):
        tree, _ = make_tree()
        for i in range(10):
            tree.insert(key(i * 10), b"v")
        assert list(tree.scan_range(key(11), key(19))) == []


class TestUnevenSplits:
    """A split falls back from the count midpoint to the byte-balanced
    cut when the midpoint leaves one half over a page."""

    def test_small_then_two_large_values_split_two_to_one(self):
        tree, _ = make_tree(page_size=4096)
        tree.insert(b"a", b"x" * 100)
        tree.insert(b"b", b"y" * 3000)
        tree.insert(b"c", b"z" * 3000)  # [a] | [b, c] does not fit; [a, b] | [c] does
        assert list(tree.scan()) == [
            (b"a", b"x" * 100), (b"b", b"y" * 3000), (b"c", b"z" * 3000)
        ]
        assert check_tree_images(tree) == 2

    def test_replace_with_a_larger_value_forces_the_split(self):
        tree, pager = make_tree(page_size=4096)
        tree.insert(b"a", b"x" * 100)
        tree.insert(b"b", b"y" * 3000)
        tree.insert(b"c", b"z" * 100)
        pages = pager.page_count
        tree.insert(b"c", b"z" * 3000)
        assert pager.page_count == pages + 2  # right leaf + the moved root
        assert tree.get(b"b") == b"y" * 3000
        assert tree.get(b"c") == b"z" * 3000
        assert check_tree_images(tree) == 2

    def test_even_cells_still_split_at_the_count_midpoint(self):
        tree, _ = make_tree(page_size=512)
        for i in range(12):
            tree.insert(key(i), b"v" * 32)
        root = tree._node(tree.root_page)
        assert not root.leaf
        assert len(tree._node(root.link).keys) == 5  # 11 // 2 of the overflowing 11

    def test_a_run_no_cut_can_halve_is_still_refused(self):
        tree, _ = make_tree(page_size=4096)
        tree.insert(b"a", b"x" * 2000)
        tree.insert(b"c", b"z" * 2000)
        with pytest.raises(SqlError, match="too large to split"):
            tree.insert(b"b", b"y" * 3000)
        assert tree.count() == 2
        check_tree_images(tree)


def snapshot(pager):
    """Every page image plus the state of every cached node."""
    images = [pager.get(page_no) for page_no in range(pager.page_count)]
    nodes = {page_no: node_state(node) for page_no, node in pager._nodes.items()}
    return images, nodes


class TestImagesAndCachedNodesStayInStep:
    def make_db(self):
        db = Database(page_size=512)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT UNIQUE, pad TEXT)")
        for i in range(40):
            db.execute("INSERT INTO t (tag, pad) VALUES (?, ?)", (f"tag-{i:03d}", "p" * 40))
        db.execute("SELECT count(*) FROM t WHERE tag >= 'tag-000'")  # warm the node cache
        return db

    def test_statement_failing_after_its_leaf_edits_rolls_back_both(self):
        db = self.make_db()
        images, nodes = snapshot(db.pager)
        assert nodes
        with pytest.raises(SqlConstraintError, match="UNIQUE"):
            # The first row edits the table leaf and the index leaf; the
            # second collides with it in the unique index.
            db.execute(
                "INSERT INTO t (tag, pad) VALUES ('fresh', 'x'), ('fresh', 'y')"
            )
        after_images, after_nodes = snapshot(db.pager)
        assert after_images == images
        # The edited pages' nodes are gone; the others are untouched.
        assert len(after_nodes) < len(nodes)
        assert all(nodes[page_no] == state for page_no, state in after_nodes.items())
        assert db.execute("SELECT count(*) FROM t").rows == [(40,)]
        for table in db.catalog.tables.values():
            check_tree_images(BTree(db.pager, table.root_page))
            for index in table.indexes:
                check_tree_images(BTree(db.pager, index.root_page))

    def test_crash_and_reopen_never_serve_a_stale_node(self):
        file, journal_file = MemoryVfsFile(), MemoryVfsFile()
        pager = Pager(file, page_size=512, journal_file=journal_file)
        pager.begin()
        tree = BTree.create(pager)
        for i in range(60):
            tree.insert(key(i), b"committed")
        pager.commit()
        committed = dict(tree.scan())

        def edit_uncommitted():
            pager.begin()
            for i in range(0, 120, 3):
                tree.insert(key(i), b"lost in the crash, and longer")
            tree.delete(key(1))
            assert dict(tree.scan()) != committed

        # Crash with the edits only in the cache: nothing reached the file.
        edit_uncommitted()
        pager.crash()
        assert not pager._nodes
        assert dict(tree.scan()) == committed
        # Crash mid-commit, journal sealed and the edited images already in
        # the file: reopening rolls them back under a cold node cache.
        edit_uncommitted()
        pager.journal.seal()
        pager._flush_all()
        pager.crash()
        reopened = BTree(
            Pager(file, page_size=512, journal_file=journal_file), tree.root_page
        )
        assert dict(reopened.scan()) == committed
        check_tree_images(reopened)
