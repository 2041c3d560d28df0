"""The state-transfer tree walk (paper section 2.1) on the replica's own
:class:`StateTransferTask`: "an efficient tree walking algorithm is
started from the root, to identify the (hopefully few) data pages that are
different and have them retransmitted".

The task runs against a stand-in replica whose peer answers every fetch
from a second page region, so the walk's cost is counted exactly.
"""

import math
from types import SimpleNamespace

from repro.pbft.messages import DigestsMsg, FetchDigestsMsg, PagesMsg
from repro.pbft.recovery import StateTransferTask
from repro.statemgr.pages import PagedState

PAGE = 16
SEQ = 8


def build_pair(num_pages, differing):
    local = PagedState(num_pages, PAGE)
    remote = PagedState(num_pages, PAGE)
    for index in range(num_pages):
        page = f"common-{index}".encode().ljust(PAGE, b".")
        local.install_page(index, page)
        remote.install_page(index, page)
    for index in differing:
        remote.install_page(index, f"changed-{index}".encode().ljust(PAGE, b"."))
    return local, remote


def transfer(local, remote):
    """Run one transfer to completion; return the task and the page
    indices it fetched, in the order it asked for them."""
    finished = []
    outbox = []
    replica = SimpleNamespace(
        node_id=1,
        state=local,
        host=SimpleNamespace(charge_cpu=lambda ns: None),
        costs=SimpleNamespace(page_transfer_ns=0),
        send_to_replica=lambda rid, msg: outbox.append(msg),
        finish_state_transfer=lambda task, marks, replies: finished.append(task),
    )
    task = StateTransferTask(replica, SEQ, remote.root, source=0)
    task.start()
    fetched = []
    while outbox:
        msg = outbox.pop(0)
        if isinstance(msg, FetchDigestsMsg):
            entries = tuple((node, remote.tree.node(node)) for node in msg.node_indices)
            task.on_digests(DigestsMsg(checkpoint_seq=SEQ, entries=entries, sender=0))
        else:
            fetched.extend(msg.page_indices)
            pages = tuple((index, remote.page(index)) for index in msg.page_indices)
            task.on_pages(
                PagesMsg(checkpoint_seq=SEQ, root=remote.root, pages=pages, sender=0)
            )
    assert finished == [task]
    assert local.root == remote.root
    return task, fetched


def test_identical_state_costs_one_digest():
    local, remote = build_pair(64, [])
    task, fetched = transfer(local, remote)
    assert fetched == []
    assert task.digests_fetched == 1  # the root settles it


def test_fetches_exactly_the_differing_pages():
    local, remote = build_pair(64, [3, 17, 40])
    task, fetched = transfer(local, remote)
    assert set(fetched) == {3, 17, 40}
    assert task.pages_fetched == 3


def test_single_page_diff_is_logarithmic():
    """The paper's 'hopefully few pages' efficiency claim, made testable."""
    local, remote = build_pair(1024, [500])
    task, fetched = transfer(local, remote)
    assert fetched == [500]
    # Root-to-leaf path with both children fetched at each level.
    assert task.digests_fetched <= 2 * (math.ceil(math.log2(1024)) + 1)


def test_all_pages_differing_walks_the_whole_tree():
    local, remote = build_pair(16, range(16))
    task, fetched = transfer(local, remote)
    assert fetched == list(range(16))
    assert task.digests_fetched >= 16


def test_pages_come_back_in_sorted_order():
    local, remote = build_pair(32, [30, 2, 15])
    _task, fetched = transfer(local, remote)
    assert fetched == [2, 15, 30]
