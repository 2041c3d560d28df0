"""The oracle for planner parity, shared by the SQL engine tests."""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.sqlstate import planner


@contextmanager
def _trivial_plans():
    real_plan_scan = planner.plan_scan

    def seq_scan(catalog, table, alias, where):
        return real_plan_scan(catalog, table, alias, None)

    def nested_loop(catalog, join, left_est):
        return planner.JoinStepPlan(
            right_table=join.right.name,
            right_alias=join.right.alias or join.right.name,
            kind=join.kind,
            strategy="nested",
        )

    with mock.patch.multiple(planner, plan_scan=seq_scan, plan_join_step=nested_loop):
        yield


@pytest.fixture
def trivial_plans():
    """``with trivial_plans():`` forces the planner to its two trivial
    answers — the full ``seq`` scan for every table, the nested loop for
    every join — which are correct for any statement because the executor
    re-checks WHERE/ON on every candidate.  The same executor run under
    it is the oracle a planned run is compared with: identical rows, never
    fewer ``rows_scanned``."""
    return _trivial_plans


@pytest.fixture(params=[False, True])
def planned(request):
    """Run the test twice: under the ``trivial_plans`` oracle (False) and
    under the planner (True); the test's assertions must hold both ways."""
    if request.param:
        yield True
    else:
        with _trivial_plans():
            yield False
