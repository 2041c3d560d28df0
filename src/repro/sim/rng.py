"""Named, seeded random streams.

Different subsystems (packet loss, crypto key generation, workload think
times) must not share one RNG: an extra draw in one subsystem would perturb
every other and destroy run-to-run comparability across configurations.
Each stream is derived deterministically from the root seed and its name.
"""

from __future__ import annotations

import random

from repro.crypto.digests import sha256


class RngStreams:
    """A factory of independent deterministic :class:`random.Random` streams."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._streams: dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The same (seed, name) pair always yields an identically-seeded
        stream, regardless of creation order.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        material = f"{self._seed}:{name}".encode()
        derived = int.from_bytes(sha256(material).digest()[:8], "big")
        stream = random.Random(derived)
        self._streams[name] = stream
        return stream
