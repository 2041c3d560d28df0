"""Applications over the PBFT middleware.

* :mod:`repro.apps.sqlapp` — the generic SQL application shim: a
  :class:`~repro.sqlstate.engine.Database` whose file lives in the PBFT
  state region (paper section 3.2);
* :mod:`repro.apps.evoting` — the paper's motivating application: an
  Internet e-voting service (vote = one row INSERT, results = read-only
  aggregate queries);
* :mod:`repro.apps.kvstore` — a small key-value service directly on the
  paged state (exercises the raw state-management contract);
* :mod:`repro.apps.unreplicated` — the centralized baseline the paper's
  introduction starts from.
"""

from repro.apps.sqlapp import SqlApplication, SqlCosts, encode_sql_op, decode_sql_op, decode_rows_reply
from repro.apps.evoting import EvotingApplication, EvotingClient
from repro.apps.preservation import PreservationApplication, ArchiveClient
from repro.apps.kvstore import Get, KvApplication, Put, encode_put
from repro.apps.unreplicated import UnreplicatedServer, UnreplicatedClient, build_unreplicated

__all__ = [
    "SqlApplication",
    "SqlCosts",
    "encode_sql_op",
    "decode_sql_op",
    "decode_rows_reply",
    "EvotingApplication",
    "EvotingClient",
    "PreservationApplication",
    "ArchiveClient",
    "KvApplication",
    "encode_put",
    "Put",
    "Get",
    "UnreplicatedServer",
    "UnreplicatedClient",
    "build_unreplicated",
]
