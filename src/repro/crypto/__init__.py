"""Cryptographic substrate.

Matches the primitives of the original PBFT implementation (paper section
2.1): MD5 digests, UMAC32-style message authentication codes combined into
per-replica *authenticators*, and the Rabin cryptosystem for asymmetric
signatures.  Section 3.3.1's proposed remedy — an (f+1, n) threshold
signature scheme — is implemented in :mod:`repro.crypto.threshold`.

Two layers:

* **functional** — the operations really compute and really verify, so a
  corrupted message genuinely fails authentication in tests;
* **cost** — every operation has a simulated CPU cost
  (:class:`repro.crypto.costs.CryptoCosts`); the signature >> MAC asymmetry
  is what produces the paper's Table 1 throughput collapse when MACs are
  disabled.
"""
