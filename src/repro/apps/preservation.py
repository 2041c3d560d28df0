"""A digital-preservation archive — the paper's other motivating domain.

"More and more applications require utmost security and reliability to be
both trustworthy to users and successful in use (e.g, electronic voting
and digital preservation)." (paper section 1)

The archive stores document *fingerprints* and custody events in the
replicated database: ingest registers a document's digest; periodic audits
append integrity attestations (timestamped with the agreed clock); any
tampering with a stored fingerprint is detectable by quorum disagreement.
The access pattern is the classic preservation workload: write-once
ingest, append-only audit trail, read-mostly verification.
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

PRESERVATION_SCHEMA = """
CREATE TABLE documents (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    fingerprint BLOB NOT NULL,
    size INTEGER NOT NULL,
    ingested_at INTEGER NOT NULL
);
CREATE UNIQUE INDEX idx_doc_name ON documents(name);
CREATE TABLE custody_events (
    id INTEGER PRIMARY KEY,
    document TEXT NOT NULL,
    event TEXT NOT NULL,
    detail TEXT,
    at INTEGER NOT NULL
);
CREATE INDEX idx_custody_doc ON custody_events(document);
"""


class PreservationApplication(SqlApplication):
    """The replicated archive service."""

    def __init__(self, acid: bool = True) -> None:
        super().__init__(schema_sql=PRESERVATION_SCHEMA, acid=acid)


class ArchiveClient:
    """Client-side helper for archive operations."""

    def __init__(self, client: PbftClient) -> None:
        self.client = client

    def ingest(self, name: str, content: bytes, callback=None):
        """Register a document: its fingerprint enters custody, with the
        agreed ingest timestamp."""
        fingerprint = md5_digest(content)
        return self._submit(
            "INSERT INTO documents (name, fingerprint, size, ingested_at) "
            "VALUES (?, ?, ?, now())",
            (name, fingerprint, len(content)),
            callback,
        )

    def record_audit(self, name: str, verdict: str, callback=None):
        """Append an integrity attestation to the custody trail."""
        return self._submit(
            "INSERT INTO custody_events (document, event, detail, at) "
            "VALUES (?, 'audit', ?, now())",
            (name, verdict),
            callback,
        )

    def verify(self, name: str, content: bytes, callback: Callable):
        """Check content against the custody fingerprint (read-only)."""
        fingerprint = md5_digest(content)
        op = encode_sql_op(
            "SELECT fingerprint FROM documents WHERE name = ?", (name,)
        )

        def wrapped(reply: bytes, latency: int) -> None:
            rows = decode_rows_reply(reply)
            if not rows:
                callback("unknown-document", latency)
            elif rows[0][0] == fingerprint:
                callback("intact", latency)
            else:
                callback("TAMPERED", latency)

        return self.client.invoke(op, readonly=True, callback=wrapped)

    def custody_trail(self, name: str, callback=None):
        op = encode_sql_op(
            "SELECT event, detail, at FROM custody_events WHERE document = ? "
            "ORDER BY id",
            (name,),
        )
        return self.client.invoke(op, readonly=True, callback=self._wrap(callback))

    def holdings(self, callback=None):
        op = encode_sql_op(
            "SELECT COUNT(*), SUM(size) FROM documents"
        )
        return self.client.invoke(op, readonly=True, callback=self._wrap(callback))

    def _submit(self, sql: str, params: tuple, callback):
        return self.client.invoke(
            encode_sql_op(sql, params), callback=self._wrap(callback)
        )

    @staticmethod
    def _wrap(callback):
        if callback is None:
            return None

        def wrapped(reply: bytes, latency: int) -> None:
            callback(decode_rows_reply(reply), latency)

        return wrapped
