"""The e-voting service — the paper's motivating application.

"Clients (on behalf of users/voters) connect to the voting service, view
the election procedures to which they have a right to participate, send
the user's vote, and potentially reconnect at a later point to view the
progress and/or results of the election." (paper section 1)

Casting a vote is exactly the operation the paper benchmarks in section
4.2: "the insertion of a single row into a database table ... a simple
key and value text (representing voter identity and accompanying vote),
in addition to a timestamp and a random value" — the timestamp and random
value deliberately exercise the non-determinism up-calls so that replies
must still be identical across replicas.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.apps.sqlapp import (
    SqlApplication,
    decode_rows_reply,
    encode_sql_op,
)
from repro.crypto.digests import md5_digest
from repro.pbft.client import PbftClient

EVOTING_SCHEMA = """
CREATE TABLE elections (
    id INTEGER PRIMARY KEY,
    title TEXT NOT NULL,
    open_from INTEGER,
    open_until INTEGER
);
CREATE TABLE candidates (
    id INTEGER PRIMARY KEY,
    election_id INTEGER NOT NULL,
    name TEXT NOT NULL
);
CREATE TABLE voters (
    id INTEGER PRIMARY KEY,
    election_id INTEGER NOT NULL,
    username TEXT NOT NULL,
    credential TEXT NOT NULL
);
CREATE UNIQUE INDEX idx_voter_election ON voters(username);
CREATE TABLE ballots (
    id INTEGER PRIMARY KEY,
    election_id INTEGER NOT NULL,
    voter TEXT NOT NULL,
    vote TEXT NOT NULL,
    cast_at INTEGER NOT NULL,
    receipt BLOB NOT NULL
);
CREATE UNIQUE INDEX idx_ballot_voter ON ballots(voter);
CREATE INDEX idx_ballot_election ON ballots(election_id);
"""


class EvotingApplication(SqlApplication):
    """The replicated server side of the voting service."""

    def __init__(self, acid: bool = True) -> None:
        super().__init__(schema_sql=EVOTING_SCHEMA, acid=acid)

    def authorize_join(self, idbuf: bytes) -> Optional[int]:
        """Dynamic-membership authorization (paper section 3.1): the
        identification buffer carries ``username:credential``; the voter
        table is the credential store; the principal is the voter row id,
        so one voter can hold only one live session."""
        try:
            username, credential = idbuf.decode().split(":", 1)
        except (UnicodeDecodeError, ValueError):
            return None
        result = self.db.execute(
            "SELECT id, credential FROM voters WHERE username = ?", (username,)
        )
        if not result.rows:
            return None
        voter_id, stored = result.rows[0]
        if stored != credential:
            return None
        return int(voter_id)


class EvotingClient:
    """Client-side helper: turns voting actions into PBFT operations."""

    def __init__(self, client: PbftClient, username: str = "") -> None:
        self.client = client
        self.username = username

    # -- administration (run before the polls open) ------------------------------

    def create_election(self, election_id: int, title: str, callback=None):
        return self._submit(
            "INSERT INTO elections (id, title, open_from, open_until) "
            "VALUES (?, ?, 0, 9223372036854775807)",
            (election_id, title),
            callback,
        )

    def add_candidate(self, election_id: int, name: str, callback=None):
        return self._submit(
            "INSERT INTO candidates (election_id, name) VALUES (?, ?)",
            (election_id, name),
            callback,
        )

    # -- voting --------------------------------------------------------------------

    def cast_vote(self, election_id: int, vote: str, callback=None):
        """The section 4.2 benchmark operation: one INSERT whose row also
        carries the agreed timestamp and an agreed 'random' receipt."""
        return self._submit(
            "INSERT INTO ballots (election_id, voter, vote, cast_at, receipt) "
            "VALUES (?, ?, ?, now(), randomblob(16))",
            (election_id, self.username or f"client{self.client.node_id}", vote),
            callback,
        )

    def view_results(self, election_id: int, callback=None):
        """Read-only tally; exercises the read-only optimization path."""
        op = encode_sql_op(
            "SELECT vote, COUNT(*) AS tally FROM ballots WHERE election_id = ? "
            "GROUP BY vote ORDER BY tally DESC, vote",
            (election_id,),
        )
        wrapped = self._wrap_callback(callback)
        return self.client.invoke(op, readonly=True, callback=wrapped)

    def my_ballot(self, callback=None):
        op = encode_sql_op(
            "SELECT vote, cast_at FROM ballots WHERE voter = ?",
            (self.username or f"client{self.client.node_id}",),
        )
        wrapped = self._wrap_callback(callback)
        return self.client.invoke(op, readonly=True, callback=wrapped)

    # -- plumbing --------------------------------------------------------------------

    def _submit(self, sql: str, params: tuple, callback):
        op = encode_sql_op(sql, params)
        return self.client.invoke(op, callback=self._wrap_callback(callback))

    @staticmethod
    def _wrap_callback(callback: Optional[Callable]):
        if callback is None:
            return None

        def wrapped(reply: bytes, latency: int) -> None:
            callback(decode_rows_reply(reply), latency)

        return wrapped


def voter_credential(username: str) -> str:
    """Deterministic demo credential (a real deployment distributes these
    out of band)."""
    return md5_digest(b"credential:" + username.encode()).hex()[:16]
