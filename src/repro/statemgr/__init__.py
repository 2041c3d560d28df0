"""PBFT state management substrate.

The original implementation "defines application 'state' as a single
continuous virtual memory region" split into equal pages, synchronized
across replicas with copy-on-write snapshots and a Merkle (hash) tree whose
root digest uniquely identifies the whole region (paper section 2.1).

This package reproduces that machinery:

* :class:`PagedState` — the memory region, with the library's
  notify-before-modify contract (and *detection* of the "havoc caused by a
  misbehaving application which fails to notify" that the paper warns
  about, section 3.2);
* :class:`MerkleTree` — incremental hash tree over page digests;
* :class:`CheckpointStore` — numbered snapshots, the votes that
  stabilize them, GC; genesis is stable checkpoint 0.
"""

from repro.statemgr.pages import PagedState
from repro.statemgr.merkle import MerkleTree
from repro.statemgr.checkpoints import Checkpoint, CheckpointStore

__all__ = [
    "PagedState",
    "MerkleTree",
    "Checkpoint",
    "CheckpointStore",
]
