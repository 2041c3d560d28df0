"""The paged state region and the notify-before-modify contract."""

import pytest

from repro.common.errors import StateError
from repro.crypto.digests import md5_digest
from repro.statemgr import pages
from repro.statemgr.pages import PagedState


def make_state(pages=8, size=64):
    return PagedState(pages, size)


def test_reads_start_zeroed():
    state = make_state()
    assert state.read(0, 16) == bytes(16)
    assert state.read(100, 8) == bytes(8)


def test_modify_then_write_then_read():
    state = make_state()
    state.modify(10, 4)
    state.write(10, b"abcd")
    assert state.read(10, 4) == b"abcd"


def test_write_without_modify_raises():
    """The 'havoc caused by a misbehaving application' (paper section 3.2)
    is detected instead of silently corrupting checkpoints."""
    state = make_state()
    with pytest.raises(StateError, match="without a prior modify"):
        state.write(10, b"abcd")


def test_notification_window_resets_per_request():
    state = make_state()
    state.modify(0, 4)
    state.write(0, b"aaaa")
    state.end_of_execution()
    with pytest.raises(StateError):
        state.write(0, b"bbbb")


def test_write_spanning_pages_requires_all_notified():
    state = make_state(pages=4, size=16)
    state.modify(12, 4)  # only page 0's tail
    with pytest.raises(StateError):
        state.write(12, b"12345678")  # spans into page 1
    state.modify(12, 8)
    state.write(12, b"12345678")
    assert state.read(12, 8) == b"12345678"


def test_out_of_range_access_rejected():
    state = make_state(pages=2, size=16)
    with pytest.raises(StateError):
        state.read(30, 8)
    with pytest.raises(StateError):
        state.modify(-1, 4)


def test_root_changes_with_content_and_is_deterministic():
    a, b = make_state(), make_state()
    assert a.root == b.root
    a.modify(0, 4)
    a.write(0, b"diff")
    assert a.root != b.root
    b.modify(0, 4)
    b.write(0, b"diff")
    assert a.root == b.root


def test_snapshot_is_copy_on_write():
    state = make_state()
    state.modify(0, 4)
    state.write(0, b"old!")
    snapshot = state.snapshot_pages()
    state.end_of_execution()
    state.modify(0, 4)
    state.write(0, b"new!")
    assert state.read(0, 4) == b"new!"
    # The snapshot still sees the old bytes (pages are immutable objects).
    assert snapshot[0][:4] == b"old!"


def test_restore_rolls_back_content_and_root():
    state = make_state()
    state.modify(0, 4)
    state.write(0, b"keep")
    snapshot = state.snapshot_pages()
    root_before = state.root
    state.end_of_execution()
    state.modify(0, 4)
    state.write(0, b"lost")
    state.restore(snapshot)
    assert state.read(0, 4) == b"keep"
    assert state.root == root_before


def test_restore_requires_matching_page_count():
    state = make_state()
    with pytest.raises(StateError):
        state.restore([b"x" * 64])


def test_install_page_bypasses_notification():
    state = make_state()
    page = bytes(range(64))[:64].ljust(64, b"\0")
    state.install_page(2, page)
    assert state.page(2) == page


def test_install_page_checks_size_and_index():
    state = make_state()
    with pytest.raises(StateError):
        state.install_page(0, b"short")
    with pytest.raises(StateError):
        state.install_page(99, bytes(64))


def test_cross_page_read():
    state = make_state(pages=4, size=16)
    state.modify(14, 6)
    state.write(14, b"abcdef")
    assert state.read(14, 6) == b"abcdef"


def test_zero_length_operations_are_noops():
    state = make_state()
    state.modify(5, 0)
    state.write(5, b"")
    assert state.read(5, 0) == b""


def test_invalid_construction():
    with pytest.raises(StateError):
        PagedState(0, 64)
    with pytest.raises(StateError):
        PagedState(4, 0)


# -- interned pages ------------------------------------------------------------


@pytest.fixture()
def fresh_table(monkeypatch):
    """An empty intern table for the test; the process's own is put back."""
    table = {}
    monkeypatch.setattr(pages, "_interned", table)
    monkeypatch.setattr(pages, "_sweep_at", pages._SWEEP_FLOOR)
    return table


def written(content, num_pages=8):
    """A state whose page 0 starts with ``content``, refreshed."""
    state = make_state(num_pages)
    state.modify(0, len(content))
    state.write(0, content)
    state.refresh_tree()
    return state


def test_equal_contents_are_one_object(fresh_table):
    a, b = written(b"interned"), written(b"interned")
    assert a.page(0) is b.page(0)
    assert a.page(1) is b.page(1)  # the zero page, interned when built
    assert b.snapshot_pages()[0] is a.page(0)


def test_a_digest_collision_never_aliases_two_contents(fresh_table, monkeypatch):
    monkeypatch.setattr(pages, "md5_digest", lambda data: bytes(16))
    a, b = written(b"first"), written(b"other")
    assert a.page(0) is not b.page(0)
    assert a.read(0, 5) == b"first" and b.read(0, 5) == b"other"
    monkeypatch.setattr(pages, "md5_digest", md5_digest)
    # Re-digested for real, each page set gives the root of its own content.
    for state, content in ((a, b"first"), (b, b"other")):
        state.restore(state.snapshot_pages())
        assert state.root == written(content).root


def test_a_write_to_a_shared_page_opens_a_private_buffer(fresh_table):
    a, b = written(b"shared"), written(b"shared")
    shared = a.page(0)
    a.end_of_execution()
    a.modify(2, 3)
    a.write(2, b"XYZ")
    assert a.read(0, 6) == b"shXYZd"
    assert b.page(0) is shared and shared[:6] == b"shared"
    a.refresh_tree()
    assert a.page(0) is not shared and b.read(0, 6) == b"shared"


def test_sweep_drops_only_entries_nothing_else_holds(fresh_table):
    kept = written(b"kept")
    dropped = written(b"dropped")
    kept_digest = md5_digest(kept.page(0))
    dropped_digest = md5_digest(dropped.page(0))
    del dropped
    pages._sweep()
    assert kept_digest in fresh_table and dropped_digest not in fresh_table
    assert fresh_table[kept_digest] is kept.page(0)
    assert md5_digest(kept.page(1)) in fresh_table  # the zero page, still held


def test_table_stays_bounded_as_states_come_and_go(fresh_table):
    for i in range(1_000):
        state = written(i.to_bytes(4, "big"), num_pages=2)
        assert len(fresh_table) <= pages._SWEEP_FLOOR
    assert state.page(0) is fresh_table[md5_digest(state.page(0))]
