"""B+trees over the pager: tables (rowid → record) and indexes (key → rowid).

Classic structure: interior nodes hold separator keys and child pointers,
leaves hold the entries and are chained left-to-right for in-order scans.
A page is a 7-byte header, its cells contiguous in key order, and a zero
tail.  Pages are parsed to key/value lists on access; a change edits the
page image — the bytes before and after the changed cell are copied as two
slices — instead of rebuilding it, so a write costs O(cell), not
O(entries on the page), and yields exactly the bytes a from-scratch
serialisation would.  Oversized leaves/interiors split, pushing a
separator up (growing a new root when the old root splits).  Deletion is
lazy — emptied leaves stay in place until the tree is rebuilt — which
keeps the code honest and simple without affecting correctness.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Iterator, Optional

from repro.common.errors import SqlError
from repro.sqlstate.pager import Pager

_LEAF = 1
_INTERIOR = 2
_HEAD = struct.Struct(">BHI")  # type, count, link
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
# A cell is u16 key length, key, then a leaf's u32 value length and value
# or an interior's u32 child page.
_CELL_FIXED = 6


class _Node:
    """A parsed page and the image it was parsed from.

    ``keys`` and ``vals`` are parallel.  A leaf's ``vals`` are the stored
    values and ``link`` is the next leaf; an interior's ``vals[i]`` is the
    child covering keys >= ``keys[i]`` and ``link`` is the child below
    ``keys[0]``.  ``raw`` is the pager's own ``bytes`` object (not a
    copy); ``raw[used:]`` is the zero tail.
    """

    __slots__ = ("leaf", "link", "keys", "vals", "raw", "used")

    def __init__(self, leaf: bool, link: int, keys: list, vals: list,
                 raw: bytes, used: int) -> None:
        self.leaf = leaf
        self.link = link
        self.keys = keys
        self.vals = vals
        self.raw = raw
        self.used = used


def _parse(raw: bytes) -> _Node:
    kind, count, link = _HEAD.unpack_from(raw)
    if kind != _LEAF and kind != _INTERIOR:
        raise SqlError(f"corrupt b-tree page (type byte {kind})")
    leaf = kind == _LEAF
    pos = _HEAD.size
    keys: list = []
    vals: list = []
    for _ in range(count):
        (klen,) = _U16.unpack_from(raw, pos)
        pos += 2
        keys.append(raw[pos : pos + klen])
        pos += klen
        (word,) = _U32.unpack_from(raw, pos)
        pos += 4
        if leaf:
            vals.append(raw[pos : pos + word])
            pos += word
        else:
            vals.append(word)
    return _Node(leaf, link, keys, vals, raw, pos)


def _cell(leaf: bool, key: bytes, val) -> bytes:
    if leaf:
        return b"".join((_U16.pack(len(key)), key, _U32.pack(len(val)), val))
    return b"".join((_U16.pack(len(key)), key, _U32.pack(val)))


class BTree:
    """One tree rooted at ``root_page``.

    The root page number is stable for the tree's lifetime (the catalog
    stores it); a root split copies the old root into a fresh page and
    re-roots in place.
    """

    def __init__(self, pager: Pager, root_page: int) -> None:
        self.pager = pager
        self.root_page = root_page

    @classmethod
    def create(cls, pager: Pager) -> "BTree":
        tree = cls(pager, pager.allocate())
        tree._store(tree.root_page, True, 0, [], [], b"")
        return tree

    def _node(self, page_no: int) -> _Node:
        """Parse a page, going through the pager's parsed-node cache.

        Profiling shows re-parsing pages on every access dominates the
        engine's cost.  A cached node always describes the pager's current
        image of its page: the pager drops it on every
        ``put``/rollback/crash, and the write path brings a node up to
        date only after the new image is stored.
        """
        node = self.pager.cached_node(page_no)
        if node is None:
            node = _parse(self.pager.get(page_no))
            self.pager.register_node(page_no, node)
        return node

    # -- lookup ------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        _page_no, leaf = self._find_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.vals[index]
        return None

    def _find_leaf(self, key: bytes) -> tuple[int, _Node]:
        page_no = self.root_page
        while True:
            node = self._node(page_no)
            if node.leaf:
                return page_no, node
            page_no = self._child_for(node, key)

    @staticmethod
    def _child_for(node: _Node, key: bytes) -> int:
        index = bisect_right(node.keys, key)
        return node.vals[index - 1] if index else node.link

    # -- mutation ------------------------------------------------------------------

    def insert(self, key: bytes, value: bytes, replace: bool = True) -> None:
        if len(key) + len(value) + 64 > self.pager.page_size:
            raise SqlError(
                f"entry of {len(key) + len(value)} bytes exceeds the page "
                f"capacity ({self.pager.page_size})"
            )
        split = self._insert_into(self.root_page, key, value, replace)
        if split is not None:
            self._grow_root(split)

    def _insert_into(
        self, page_no: int, key: bytes, value: bytes, replace: bool
    ) -> Optional[tuple[bytes, int]]:
        node = self._node(page_no)
        if node.leaf:
            index = bisect_left(node.keys, key)
            found = index < len(node.keys) and node.keys[index] == key
            if found and not replace:
                raise SqlError("duplicate key")
            return self._splice(page_no, node, index, found, key, value)
        split = self._insert_into(self._child_for(node, key), key, value, replace)
        if split is None:
            return None
        sep, right_page = split
        return self._splice(
            page_no, node, bisect_left(node.keys, sep), False, sep, right_page
        )

    def _splice(
        self, page_no: int, node: _Node, index: int, drop: bool,
        key: Optional[bytes] = None, val=None,
    ) -> Optional[tuple[bytes, int]]:
        """The one write path: the cell at ``index`` leaves if ``drop``
        (leaves only), and ``(key, val)``, if given, enters there.

        The next image is cut from the current one and stored; only then
        is the node brought up to date and re-registered, so an exception
        leaves image and cached node as they were.  Returns the
        ``(separator, right page)`` to push up when the page had to split.
        """
        keys, vals, raw, leaf = node.keys, node.vals, node.raw, node.leaf
        if index == len(keys):
            start = node.used
        else:
            start = _HEAD.size + _CELL_FIXED * index + sum(map(len, keys[:index]))
            if leaf:
                start += sum(map(len, vals[:index]))
        end = start
        if drop:
            end += _CELL_FIXED + len(keys[index]) + len(vals[index])
        if key is None:
            cell, new_keys, new_vals = b"", [], []
        else:
            cell, new_keys, new_vals = _cell(leaf, key, val), [key], [val]
        before, after = raw[_HEAD.size : start], raw[end : node.used]
        used = node.used - (end - start) + len(cell)
        page_size = self.pager.page_size
        if used > page_size:
            return self._split(
                page_no, node,
                keys[:index] + new_keys + keys[index + drop :],
                vals[:index] + new_vals + vals[index + drop :],
                b"".join((before, cell, after)),
            )
        count = len(keys) - drop + len(new_keys)
        image = b"".join((
            _HEAD.pack(_LEAF if leaf else _INTERIOR, count, node.link),
            before, cell, after, bytes(page_size - used),
        ))
        self.pager.put(page_no, image)
        keys[index : index + drop] = new_keys
        vals[index : index + drop] = new_vals
        node.raw = image
        node.used = used
        self.pager.register_node(page_no, node)
        return None

    def _store(
        self, page_no: int, leaf: bool, link: int, keys: list, vals: list, cells: bytes
    ) -> None:
        """Store a page built around ``cells`` and cache its node."""
        used = _HEAD.size + len(cells)
        image = b"".join((
            _HEAD.pack(_LEAF if leaf else _INTERIOR, len(keys), link),
            cells, bytes(self.pager.page_size - used),
        ))
        self.pager.put(page_no, image)
        self.pager.register_node(page_no, _Node(leaf, link, keys, vals, image, used))

    def _split(
        self, page_no: int, node: _Node, keys: list, vals: list, cells: bytes
    ) -> tuple[bytes, int]:
        """Cut an overflowing page in two; ``keys``, ``vals`` and ``cells``
        are its content with the change applied.  A leaf's right half
        starts at the cut cell; an interior's cut cell moves up and its
        child becomes the right half's leftmost."""
        leaf = node.leaf
        up = 0 if leaf else 1
        if leaf:
            sizes = [_CELL_FIXED + len(k) + len(v) for k, v in zip(keys, vals)]
        else:
            sizes = [_CELL_FIXED + len(k) for k in keys]
        starts = [0, *accumulate(sizes)]
        room = self.pager.page_size - _HEAD.size

        def larger_half(cut: int) -> int:
            return max(starts[cut], starts[-1] - starts[cut + up])

        # The count midpoint whenever both halves fit; only uneven cells
        # need the byte-balanced cut.
        cut = len(keys) // 2
        if larger_half(cut) > room:
            cut = min(range(1, len(keys) - up), key=larger_half)
            if larger_half(cut) > room:
                raise SqlError("entry too large to split across pages")
        right_page = self.pager.allocate()
        left_link, right_link = (right_page, node.link) if leaf else (node.link, vals[cut])
        self._store(
            right_page, leaf, right_link,
            keys[cut + up :], vals[cut + up :], cells[starts[cut + up] :],
        )
        self._store(
            page_no, leaf, left_link, keys[:cut], vals[:cut], cells[: starts[cut]]
        )
        return (keys[cut], right_page)

    def _grow_root(self, split: tuple[bytes, int]) -> None:
        """Re-root in place: move the current root to a new page and make
        the root page an interior node over (old root, new sibling)."""
        sep, right_page = split
        moved = self.pager.allocate()
        self.pager.put(moved, self.pager.get(self.root_page))
        self._store(
            self.root_page, False, moved, [sep], [right_page],
            _cell(False, sep, right_page),
        )

    def delete(self, key: bytes) -> bool:
        page_no, node = self._find_leaf(key)
        index = bisect_left(node.keys, key)
        if index >= len(node.keys) or node.keys[index] != key:
            return False
        self._splice(page_no, node, index, True)
        return True

    # -- iteration -------------------------------------------------------------------

    def scan(self, start_key: Optional[bytes] = None) -> Iterator[tuple[bytes, bytes]]:
        """Yield (key, value) in key order, starting at ``start_key``."""
        if start_key is None:
            node, index = self._leftmost_leaf(), 0
        else:
            _page_no, node = self._find_leaf(start_key)
            index = bisect_left(node.keys, start_key)
        while True:
            # Snapshots, so a write to this leaf mid-scan cannot shift
            # what the scan yields from it or where it goes next.
            next_leaf = node.link
            yield from zip(node.keys[index:], node.vals[index:])
            if not next_leaf:
                return
            node, index = self._node(next_leaf), 0

    def scan_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        for key, value in self.scan(start_key=prefix):
            if not key.startswith(prefix):
                return
            yield key, value

    def scan_range(
        self, low: Optional[bytes], high: Optional[bytes]
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield entries with ``low <= key``, stopping once keys pass
        ``high`` (prefix-inclusive: a key extending ``high`` still
        matches, which is how index entries carry a rowid suffix).

        Both bounds are *inclusive* at the encoded-key level by design:
        the numeric key encoding is monotone but not injective (large
        integers collapse onto floats), so strict bounds must be
        enforced by the caller re-checking decoded values, never by
        skipping encoded keys.
        """
        for key, value in self.scan(start_key=low):
            if high is not None and key > high and not key.startswith(high):
                return
            yield key, value

    def _leftmost_leaf(self) -> _Node:
        node = self._node(self.root_page)
        while not node.leaf:
            node = self._node(node.link)
        return node

    def last_key(self) -> Optional[bytes]:
        """The maximum key (used for rowid assignment)."""
        node = self._node(self.root_page)
        while not node.leaf:
            node = self._node(node.vals[-1] if node.vals else node.link)
        if node.keys:
            return node.keys[-1]
        # Lazy deletion can leave an empty rightmost leaf; fall back to
        # a full scan of the (rare) degenerate tree.
        best = None
        for key, _value in self.scan():
            best = key
        return best

    def count(self) -> int:
        return sum(1 for _ in self.scan())
