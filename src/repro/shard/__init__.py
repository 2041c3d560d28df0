"""Sharded multi-group PBFT with cross-shard ACID commit.

The scale-out layer (ROADMAP #2, Basil-style): the keyspace / SQL tables
are partitioned across S independent PBFT groups, single-shard operations
route directly to the owning group, and cross-shard transactions commit
atomically through a deterministic two-phase commit whose every protocol
step is ordered in some group's own PBFT log.  See DESIGN.md §9.
"""
