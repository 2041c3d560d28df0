"""Sharded multi-group PBFT with cross-shard ACID commit.

The scale-out layer (ROADMAP #2, Basil-style): the keyspace / SQL tables
are partitioned across S independent PBFT groups, single-shard operations
route directly to the owning group, and cross-shard transactions commit
atomically through a deterministic two-phase commit whose every protocol
step is ordered in some group's own PBFT log.  See DESIGN.md §9.
"""

from repro.shard.campaign import (
    CHURN_REGRESSION_SEED,
    ShardScenario,
    key_for_shard,
    prefix_schedule,
    rebalance_scenarios,
    rebalance_smoke_scenarios,
    run_shard_campaign,
    run_shard_scenario,
    shard_campaign_config,
    shard_scenarios,
    smoke_scenarios,
)
from repro.shard.directory import ShardDirectory, key_position
from repro.shard.rebalance import MoveRecord, ShardRebalancer
from repro.shard.router import (
    KvShardCodec,
    ShardRouter,
    SqlShardCodec,
    TxnResult,
)
from repro.shard.topology import ShardedCluster, build_sharded_cluster
from repro.shard.txapp import (
    DECISION_ABORT,
    DECISION_COMMIT,
    ShardTxApplication,
    decode_tx_reply,
    is_tx_reply,
)

__all__ = [
    "ShardDirectory",
    "key_position",
    "MoveRecord",
    "ShardRebalancer",
    "CHURN_REGRESSION_SEED",
    "ShardScenario",
    "key_for_shard",
    "prefix_schedule",
    "rebalance_scenarios",
    "rebalance_smoke_scenarios",
    "run_shard_campaign",
    "run_shard_scenario",
    "shard_campaign_config",
    "shard_scenarios",
    "smoke_scenarios",
    "ShardRouter",
    "KvShardCodec",
    "SqlShardCodec",
    "TxnResult",
    "ShardedCluster",
    "build_sharded_cluster",
    "ShardTxApplication",
    "DECISION_ABORT",
    "DECISION_COMMIT",
    "decode_tx_reply",
    "is_tx_reply",
]
