"""Property tests: the paged state region behaves like a big bytearray."""

from hypothesis import given, settings, strategies as st

from repro.crypto.digests import md5_digest
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
