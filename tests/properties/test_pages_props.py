"""Property tests: the paged state region behaves like a big bytearray."""

from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from repro.crypto.digests import md5_digest
from repro.statemgr import pages
from repro.statemgr.merkle import MerkleTree
from repro.statemgr.pages import PagedState

NUM_PAGES, PAGE_SIZE = 8, 64
SIZE = NUM_PAGES * PAGE_SIZE

writes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=SIZE - 1),
        st.binary(min_size=1, max_size=48),
    ),
    max_size=30,
)


@given(ops=writes)
@settings(max_examples=80)
def test_matches_bytearray_model(ops):
    state = PagedState(NUM_PAGES, PAGE_SIZE)
    model = bytearray(SIZE)
    for offset, data in ops:
        data = data[: SIZE - offset]
        state.modify(offset, len(data))
        state.write(offset, data)
        model[offset : offset + len(data)] = data
    assert state.read(0, SIZE) == bytes(model)


@given(ops=writes)
@settings(max_examples=60)
def test_same_content_same_root(ops):
    def build():
        state = PagedState(NUM_PAGES, PAGE_SIZE)
        for offset, data in ops:
            data = data[: SIZE - offset]
            state.modify(offset, len(data))
            state.write(offset, data)
        return state

    assert build().refresh_tree() == build().refresh_tree()


@given(ops=writes, extra=writes)
@settings(max_examples=40)
def test_restore_is_exact(ops, extra):
    state = PagedState(NUM_PAGES, PAGE_SIZE)
    for offset, data in ops:
        data = data[: SIZE - offset]
        state.modify(offset, len(data))
        state.write(offset, data)
    snapshot = state.snapshot_pages()
    root = state.refresh_tree()
    content = state.read(0, SIZE)
    state.end_of_execution()
    for offset, data in extra:
        data = data[: SIZE - offset]
        state.modify(offset, len(data))
        state.write(offset, data)
    state.restore(snapshot)
    assert state.read(0, SIZE) == content
    assert state.refresh_tree() == root


def reference_root(state):
    """The root of a tree rebuilt one leaf at a time with
    ``MerkleTree.update_leaf`` — the per-leaf algorithm that
    ``refresh_tree``'s batched ``update_leaves`` must agree with."""
    tree = MerkleTree.uniform(NUM_PAGES, md5_digest(bytes(PAGE_SIZE)))
    for index in range(NUM_PAGES):
        tree.update_leaf(index, md5_digest(state.page(index)))
    return tree.root


def page_chunks(offset, length):
    """``[offset, offset+length)`` cut at page boundaries."""
    end = offset + length
    while offset < end:
        stop = min(end, (offset // PAGE_SIZE + 1) * PAGE_SIZE)
        yield offset, stop
        offset = stop


@given(ops=writes)
@settings(max_examples=60)
def test_single_page_fast_paths_equal_general_paths(ops):
    """The single-page read/write fast paths are invisible to the contract.

    The same program runs twice.  Cut into per-page ``bytes`` writes and
    read back page by page, every call takes the single-slice fast path;
    issued whole as ``bytearray`` data (page-straddling when it is) and
    read back in one multi-page read, every call takes the general
    memoryview-splice path.  Both must equal a flat ``bytearray`` model in
    content and ``writes``, and each root a tree rebuilt leaf by leaf.
    """
    fast = PagedState(NUM_PAGES, PAGE_SIZE)
    general = PagedState(NUM_PAGES, PAGE_SIZE)
    model = bytearray(SIZE)
    chunk_count = 0
    for offset, data in ops:
        data = data[: SIZE - offset]
        model[offset : offset + len(data)] = data
        fast.modify(offset, len(data))
        for start, stop in page_chunks(offset, len(data)):
            fast.write(start, data[start - offset : stop - offset])
            chunk_count += 1
        general.modify(offset, len(data))
        general.write(offset, bytearray(data))
    fast_content = b"".join(
        fast.read(start, stop - start) for start, stop in page_chunks(0, SIZE)
    )
    assert fast_content == general.read(0, SIZE) == bytes(model)
    assert (fast.writes, general.writes) == (chunk_count, len(ops))
    assert fast.refresh_tree() == reference_root(fast)
    assert general.refresh_tree() == reference_root(general) == fast.root


@given(ops=writes)
@settings(max_examples=40)
def test_restore_with_tree_snapshot_equals_redigest(ops):
    state = PagedState(NUM_PAGES, PAGE_SIZE)
    for offset, data in ops:
        data = data[: SIZE - offset]
        state.modify(offset, len(data))
        state.write(offset, data)
    pages = state.snapshot_pages()
    nodes = state.tree.snapshot_nodes()
    root = state.root

    with_nodes = PagedState(NUM_PAGES, PAGE_SIZE)
    with_nodes.restore(pages, nodes)
    redigested = PagedState(NUM_PAGES, PAGE_SIZE)
    redigested.restore(pages, None)  # no tree snapshot: every page re-digested
    assert with_nodes.root == redigested.root == root == reference_root(state)
    assert with_nodes.read(0, SIZE) == redigested.read(0, SIZE)


# -- copy-on-write isolation -------------------------------------------------
#
# Between checkpoints a page being written is an open buffer that writes
# splice into in place; snapshot_pages/refresh_tree/page freeze it back to
# bytes.  Programs below interleave every operation that opens, splices,
# freezes or replaces a page, against a flat bytearray model plus a copy of
# the model taken at each snapshot.

def _as(kind, data):
    if kind == "bytearray":
        return bytearray(data)
    if kind == "memoryview":
        return memoryview(bytearray(data))
    return bytes(data)


_kinds = st.sampled_from(["bytes", "bytearray", "memoryview"])
_sub_page = st.tuples(
    st.just("write"), st.integers(0, SIZE - 1), st.binary(min_size=1, max_size=PAGE_SIZE // 2),
    _kinds,
)
_whole_page = st.tuples(
    st.just("write"), st.integers(0, NUM_PAGES - 1).map(lambda p: p * PAGE_SIZE),
    st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE), _kinds,
)
_straddling = st.tuples(
    st.just("write"),
    st.integers(1, NUM_PAGES - 1).flatmap(
        lambda p: st.integers(p * PAGE_SIZE - PAGE_SIZE // 2, p * PAGE_SIZE - 1)
    ),
    st.binary(min_size=PAGE_SIZE // 2 + 1, max_size=2 * PAGE_SIZE),
    _kinds,
)
_steps = st.lists(
    st.one_of(
        _sub_page, _whole_page, _straddling,
        st.tuples(st.just("read"), st.integers(0, SIZE - 1), st.integers(1, 2 * PAGE_SIZE)),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("page"), st.integers(0, NUM_PAGES - 1)),
        st.tuples(
            st.just("install"), st.integers(0, NUM_PAGES - 1),
            st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE), _kinds,
        ),
        st.tuples(st.just("restore"), st.integers(0, 7), st.booleans()),
        st.tuples(st.just("refresh")),
        st.tuples(st.just("end")),
    ),
    max_size=40,
)


@given(steps=_steps)
@settings(max_examples=150, deadline=None)
def test_snapshots_are_isolated_from_later_writes(steps):
    state = PagedState(NUM_PAGES, PAGE_SIZE)
    model = bytearray(SIZE)
    snapshots = []  # (pages as returned, model copy, tree nodes)
    writes = 0
    for step in steps:
        op = step[0]
        if op == "write":
            _, offset, data, kind = step
            data = data[: SIZE - offset]
            state.modify(offset, len(data))
            state.write(offset, _as(kind, data))
            model[offset : offset + len(data)] = data
            writes += 1
        elif op == "read":
            _, offset, length = step
            length = min(length, SIZE - offset)
            got = state.read(offset, length)
            assert got.__class__ is bytes
            assert got == model[offset : offset + length]
        elif op == "snapshot":
            pages = state.snapshot_pages()
            assert all(page.__class__ is bytes for page in pages)
            snapshots.append((pages, bytes(model), state.tree.snapshot_nodes()))
        elif op == "page":
            index = step[1]
            page = state.page(index)
            assert page.__class__ is bytes
            assert page == model[index * PAGE_SIZE : (index + 1) * PAGE_SIZE]
        elif op == "install":
            _, index, data, kind = step
            state.install_page(index, _as(kind, data))
            model[index * PAGE_SIZE : (index + 1) * PAGE_SIZE] = data
        elif op == "restore" and snapshots:
            pages, content, nodes = snapshots[step[1] % len(snapshots)]
            state.restore(pages, nodes if step[2] else None)
            model[:] = content
        elif op == "refresh":
            assert state.refresh_tree() == reference_root(state)
        elif op == "end":
            state.end_of_execution()
        # Nothing done since may show through an earlier snapshot.
        for pages, content, _nodes in snapshots:
            assert b"".join(pages) == content
    assert state.read(0, SIZE) == bytes(model)
    assert state.writes == writes
    assert state.refresh_tree() == reference_root(state)


# -- interned pages under digest collisions ----------------------------------
#
# Several states share one intern table while a step list writes, freezes,
# snapshots and restores them.  The digest is patched to two values, so
# every other lookup is a collision with unequal bytes; contents come from
# a two-symbol alphabet, so equal pages (real sharing) are common too.

SMALL_PAGES, SMALL_SIZE, STATES = 4, 16, 3
SMALL = SMALL_PAGES * SMALL_SIZE


def two_valued(data):
    return bytes([md5_digest(data)[0] & 1]) * 16


_bits = st.lists(st.sampled_from([0, 1]), min_size=1, max_size=SMALL_SIZE).map(bytes)
_page_contents = st.sampled_from([bytes(SMALL_SIZE), b"\x01" * SMALL_SIZE, b"\x00\x01" * 8])
_state = st.integers(0, STATES - 1)
_shared_steps = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _state, st.integers(0, SMALL - 1), _bits, _kinds),
        st.tuples(st.just("install"), _state, st.integers(0, SMALL_PAGES - 1),
                  _page_contents, _kinds),
        st.tuples(st.just("snapshot"), _state),
        st.tuples(st.just("restore"), _state, st.integers(0, 7), st.booleans()),
        st.tuples(st.just("page"), _state, st.integers(0, SMALL_PAGES - 1)),
        st.tuples(st.just("refresh"), _state),
        st.tuples(st.just("end"), _state),
    ),
    max_size=50,
)


def two_valued_root(content):
    tree = MerkleTree.uniform(SMALL_PAGES, two_valued(bytes(SMALL_SIZE)))
    for index in range(SMALL_PAGES):
        tree.update_leaf(index, two_valued(content[index * SMALL_SIZE : (index + 1) * SMALL_SIZE]))
    return tree.root


@given(steps=_shared_steps)
@settings(max_examples=150, deadline=None)
def test_interned_states_match_their_own_models_under_collisions(steps):
    with patch.object(pages, "md5_digest", two_valued), \
            patch.object(pages, "_interned", {}), \
            patch.object(pages, "_SWEEP_FLOOR", 1), patch.object(pages, "_sweep_at", 1):
        states = [PagedState(SMALL_PAGES, SMALL_SIZE) for _ in range(STATES)]
        models = [bytearray(SMALL) for _ in range(STATES)]
        snapshots = []  # (pages, content, tree nodes), taken from any state
        for op, who, *args in steps:
            state, model = states[who], models[who]
            if op == "write":
                offset, data, kind = args
                data = data[: SMALL - offset]
                state.modify(offset, len(data))
                state.write(offset, _as(kind, data))
                model[offset : offset + len(data)] = data
            elif op == "install":
                index, data, kind = args
                state.install_page(index, _as(kind, data))
                model[index * SMALL_SIZE : (index + 1) * SMALL_SIZE] = data
            elif op == "snapshot":
                snapshots.append((state.snapshot_pages(), bytes(model), state.tree.snapshot_nodes()))
            elif op == "restore" and snapshots:
                taken, content, nodes = snapshots[args[0] % len(snapshots)]
                state.restore(taken, nodes if args[1] else None)
                model[:] = content
            elif op == "page":
                index = args[0]
                assert state.page(index) == model[index * SMALL_SIZE : (index + 1) * SMALL_SIZE]
            elif op == "refresh":
                assert state.refresh_tree() == two_valued_root(model)
            elif op == "end":
                state.end_of_execution()
            for each, own in zip(states, models):
                assert each.read(0, SMALL) == own
            for taken, content, _nodes in snapshots:
                assert b"".join(taken) == content
        for state, model in zip(states, models):
            assert state.refresh_tree() == two_valued_root(model)
