"""Named, reproducible random streams.

Every stochastic model in the simulator (hypervisor jitter, boot
failures, spot prices, ...) draws from a *named* stream obtained from the
engine's root :class:`RandomStreams`.  Streams are derived by hashing the
name into a :class:`numpy.random.SeedSequence`, so

* the same ``(root seed, name)`` pair always yields the same stream, and
* adding a new consumer never perturbs the draws seen by existing ones
  (unlike a single shared generator).

numpy is imported by the first :meth:`RandomStreams.stream` call, not
with this module: a run whose every cell is served from the cell store
draws no random number, so it never pays numpy's import.
"""

from __future__ import annotations

import hashlib
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def _name_to_key(name: str) -> tuple[int, ...]:
    """Map a stream name to a stable tuple of 32-bit integers."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


class RandomStreams:
    """A tree of named :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0, _entropy: tuple[int, ...] = ()) -> None:
        self.seed = seed
        self._entropy = _entropy
        self._cache: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (and cache) the generator for ``name``."""
        gen = self._cache.get(name)
        if gen is None:
            import numpy as np

            ss = np.random.SeedSequence(
                entropy=self.seed, spawn_key=self._entropy + _name_to_key(name)
            )
            gen = np.random.default_rng(ss)
            self._cache[name] = gen
        return gen

    def child(self, name: str) -> "RandomStreams":
        """Return a namespaced sub-tree (streams independent of parent's)."""
        return RandomStreams(self.seed, self._entropy + _name_to_key(name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RandomStreams seed={self.seed} depth={len(self._entropy) // 4}>"
