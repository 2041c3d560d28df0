"""Residue of the retired off/on switch: the memoised path is the only one.

``bench/run.py`` imports ``HOTPATH`` and refuses to measure unless
``enabled`` is true; nothing else may read it.
"""


class HOTPATH:
    enabled = True
