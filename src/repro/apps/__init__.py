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
