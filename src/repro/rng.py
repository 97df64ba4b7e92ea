"""Deterministic randomness utilities.

The distributed protocol and the centralized reference implementation must
draw *identical* radii so that their outputs can be cross-validated
bit-for-bit (experiment E8/E12 in ``DESIGN.md``).  To make that possible,
all random draws in this library flow through named, hierarchical streams
derived from a single integer seed:

* :func:`derive_seed` hashes a root seed together with an arbitrary tuple of
  labels (for example ``("phase", 3, "vertex", 17)``) into a new 63-bit seed.
* :func:`stream` returns a :class:`random.Random` seeded that way.

The derivation uses BLAKE2b, so streams are stable across Python versions,
platforms and process invocations — unlike ``hash()``, which is salted.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterable

__all__ = ["derive_seed", "seed_prefix", "stream", "spawn_seeds", "DEFAULT_SEED"]

DEFAULT_SEED = 0x5EED
"""Seed used by algorithms when the caller does not supply one."""

_MASK_63 = (1 << 63) - 1
_SEPARATOR = b"\x1f"


def _root_hasher(root: int) -> "hashlib.blake2b":
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(repr(root).encode("utf8"))
    return hasher


def _absorb(hasher, labels) -> None:
    for label in labels:
        hasher.update(_SEPARATOR + repr(label).encode("utf8"))


def _finish(hasher) -> int:
    return int.from_bytes(hasher.digest(), "big") & _MASK_63


def derive_seed(root: int, *labels: object) -> int:
    """Derive a stable 63-bit seed from ``root`` and a label path.

    Parameters
    ----------
    root:
        The caller's top-level seed.  Any Python integer is accepted
        (negative values are folded into the hash input unchanged).
    labels:
        Arbitrary path of hashable-by-repr labels, e.g.
        ``derive_seed(seed, "phase", t, "vertex", v)``.  Two different label
        paths collide only with cryptographically negligible probability.

    Returns
    -------
    int
        A seed in ``[0, 2**63)`` suitable for :class:`random.Random`.
    """
    hasher = _root_hasher(root)
    _absorb(hasher, labels)
    return _finish(hasher)


def seed_prefix(root: int, *labels: object) -> Callable[..., int]:
    """Amortised :func:`derive_seed` under a fixed label prefix.

    Returns a callable with ``derive(*suffix) == derive_seed(root,
    *labels, *suffix)`` — bit-identical by construction (the prefix
    hash state is computed once and ``copy()``-ed per call), but without
    re-hashing the prefix.  This is the bulk-derivation primitive for
    per-phase hot loops that draw one stream per vertex.
    """
    prefix = _root_hasher(root)
    _absorb(prefix, labels)
    copy, from_bytes, separator, mask = prefix.copy, int.from_bytes, _SEPARATOR, _MASK_63

    def derive(*suffix: object) -> int:
        # _absorb and _finish, inlined through bound locals.
        hasher = copy()
        for label in suffix:
            hasher.update(separator + repr(label).encode("utf8"))
        return from_bytes(hasher.digest(), "big") & mask

    return derive


def stream(root: int, *labels: object) -> random.Random:
    """Return a :class:`random.Random` on the stream named by ``labels``.

    The same ``(root, labels)`` pair always produces a generator that emits
    the same sequence of values.
    """
    return random.Random(derive_seed(root, *labels))


def spawn_seeds(root: int, count: int, *labels: object) -> list[int]:
    """Return ``count`` independent child seeds under the given label path.

    Convenience wrapper used to hand each node of a simulated network its
    own private stream: ``spawn_seeds(seed, n, "node")``.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return [derive_seed(root, *labels, index) for index in range(count)]
