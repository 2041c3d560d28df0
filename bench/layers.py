"""Where the host time goes: the layer map and the profile fold.

A layer is one of this repo's packages, split further where a package
holds modules that optimisations target separately (``pbft``,
``sqlstate``, ``shard``).  The map lists every source file explicitly;
``test_bench.py`` fails when a file under ``src/repro`` matches no rule,
so a new module cannot fall silently into ``other``.

The fold takes ``cProfile`` rows (the spans at every call boundary,
recorded from the benchmark, never from inside the program) and charges
each function's self time to the layer of the file that defines it.
Functions defined outside the repo — C builtins (``hashlib``, ``heapq``,
``struct``, ``pow``, dict/list methods) and the standard library —
belong to no layer: their self time is charged to the layer that called
them, following the profiler's caller edges, so the layer times sum to
the profiled total and the shares to 1.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Optional

# First matching prefix wins.  Paths are relative to src/repro/.
LAYER_RULES: tuple[tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("net/", "net"),
    ("crypto/", "crypto"),
    ("pbft/replica.py", "pbft.replica"),
    ("pbft/node.py", "pbft.node"),
    ("pbft/log.py", "pbft.log"),
    ("pbft/client.py", "pbft.client"),
    ("pbft/viewchange.py", "pbft.viewchange"),
    ("pbft/messages.py", "pbft.messages"),
    ("pbft/wire.py", "pbft.messages"),
    ("pbft/", "pbft.other"),
    ("statemgr/", "statemgr"),
    ("sqlstate/btree.py", "sqlstate.btree"),
    ("sqlstate/executor.py", "sqlstate.executor"),
    ("sqlstate/pager.py", "sqlstate.pager"),
    ("sqlstate/vfs.py", "sqlstate.pager"),
    ("sqlstate/journal.py", "sqlstate.pager"),
    ("sqlstate/tokens.py", "sqlstate.parser"),
    ("sqlstate/parser.py", "sqlstate.parser"),
    ("sqlstate/planner.py", "sqlstate.parser"),
    ("sqlstate/", "sqlstate.other"),
    ("apps/", "apps"),
    ("membership/", "membership"),
    ("shard/router.py", "shard.router"),
    ("shard/txapp.py", "shard.txapp"),
    ("shard/", "shard.other"),
    ("obs/", "obs"),
    ("harness/", "harness"),
    ("faults/", "faults"),
    ("common/", "other"),
    ("perf/", "other"),
    ("__init__.py", "other"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for _prefix, layer in LAYER_RULES))

_SRC_MARKER = os.sep + os.path.join("src", "repro") + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of_module(relative_path: str) -> Optional[str]:
    """Layer of a file given relative to ``src/repro/``; None if no rule."""
    relative_path = relative_path.replace(os.sep, "/")
    for prefix, layer in LAYER_RULES:
        if relative_path.startswith(prefix):
            return layer
    return None


def layer_of_file(filename: str) -> Optional[str]:
    """Layer of a profiled function's file; None for code outside the repo.

    The benchmark's own closures (completion callbacks, op generators) are
    load generation, so they count as ``harness`` like the repo's own
    generator does.
    """
    at = filename.rfind(_SRC_MARKER)
    if at >= 0:
        return layer_of_module(filename[at + len(_SRC_MARKER):]) or "other"
    if os.path.abspath(filename).startswith(_BENCH_DIR):
        return "harness"
    return None


def fold_profile(stats: dict) -> dict[str, dict[str, float]]:
    """Fold ``pstats``-shaped rows into ``{layer: {"self_s", "calls"}}``.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    with ``callers`` mapping a caller's key to its edge ``(nc, cc, tt,
    ct)`` — the shape of ``pstats.Stats(profile).stats``.
    """
    folded: dict[str, dict[str, float]] = {
        layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS
    }
    memo: dict[tuple, dict[str, float]] = {}

    def owners(func: tuple, seen: frozenset) -> dict[str, float]:
        """The layers answerable for ``func``'s time, as weights summing to 1."""
        layer = layer_of_file(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        calls = sum(edge[0] for edge in callers.values())
        if func in seen or not calls:
            return {"other": 1.0}  # a profile root, or recursion outside the repo
        mix: dict[str, float] = defaultdict(float)
        for caller, edge in callers.items():
            for owner, weight in owners(caller, seen | {func}).items():
                mix[owner] += weight * edge[0] / calls
        memo[func] = dict(mix)
        return memo[func]

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = layer_of_file(func[0])
        if layer is not None:
            folded[layer]["self_s"] += tt
            folded[layer]["calls"] += nc
        else:
            # Outside the repo: each caller edge carries the self time
            # spent on that caller's behalf.  What no edge carries (calls
            # from the frame that switched the profiler on) is "other".
            unclaimed = tt
            for caller, edge in callers.items():
                unclaimed -= edge[2]
                for owner, weight in owners(caller, frozenset((func,))).items():
                    folded[owner]["self_s"] += edge[2] * weight
            folded["other"]["self_s"] += unclaimed
    return folded


def calls_where(stats: dict, layer: str, names: tuple[str, ...],
                caller_layer: Optional[str] = None) -> int:
    """Calls of the functions called ``names`` defined in ``layer``;
    with ``caller_layer``, only the calls made from that layer."""
    total = 0
    for func, (_cc, nc, _tt, _ct, callers) in stats.items():
        if func[2] not in names or layer_of_file(func[0]) != layer:
            continue
        if caller_layer is None:
            total += nc
        else:
            total += sum(
                edge[0] for caller, edge in callers.items()
                if (layer_of_file(caller[0]) or "").split(".")[0] == caller_layer
            )
    return total

