"""Active-set masks: the ``G_t`` membership structure of the carving loop.

Paper context: §2 ("Construction") — every phase of the Elkin–Neiman
process operates on the *current graph* :math:`G_t`, the subgraph induced
by the vertices not yet carved into a block.  The traversal kernel
(:mod:`repro.graphs.traversal`) filters by such a vertex subset on every
edge relaxation, which makes membership probing the single hottest
operation in the library.

:class:`ActiveSet` therefore stores membership as a flat ``bytearray``
mask (one byte per vertex, ``1`` = active): probes are O(1) byte reads,
the mask feeds the CSR traversal kernel with zero conversion, and a whole
block can be removed with one C-level pass.  The class keeps the familiar
set-like surface (``in``, ``len``, iteration in ascending vertex order,
``-=``) so the algorithm drivers read unchanged.

Plain ``set``/``frozenset``/any ``Container[int]`` actives remain accepted
everywhere via :func:`as_active_mask` — external callers written against
the pre-CSR API keep working; they only pay a one-off O(n) adaption per
traversal call instead of a per-edge Python probe.
"""

from __future__ import annotations

from itertools import compress
from typing import Container, Iterable, Iterator

from ..errors import GraphError

__all__ = ["ActiveSet", "as_active_mask", "blocked_from_active"]

#: ``bytes.translate`` table inverting a 0/1 mask: 0 -> 1, anything else -> 0.
_INVERT = bytes(1 if b == 0 else 0 for b in range(256))


class ActiveSet:
    """A vertex subset of ``range(n)`` stored as a flat byte mask.

    Parameters
    ----------
    num_vertices:
        Size ``n`` of the vertex universe; members are in ``range(n)``.
    vertices:
        Optional initial members.  Use :meth:`full` for "all vertices".

    Notes
    -----
    Iteration yields members in **ascending vertex order**, so code that
    builds per-vertex dicts by iterating an :class:`ActiveSet` is
    deterministic without an extra ``sorted()`` (unlike ``set``).
    """

    __slots__ = ("_n", "_mask", "_count")

    def __init__(self, num_vertices: int, vertices: Iterable[int] | None = None) -> None:
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
        self._n = num_vertices
        self._mask = bytearray(num_vertices)
        self._count = 0
        if vertices is not None:
            for v in vertices:
                self.add(v)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, num_vertices: int) -> "ActiveSet":
        """All of ``range(num_vertices)`` active — the phase-0 graph."""
        out = cls(num_vertices)
        out._mask = bytearray(b"\x01") * num_vertices
        out._count = num_vertices
        return out

    @classmethod
    def from_iterable(cls, num_vertices: int, vertices: Iterable[int]) -> "ActiveSet":
        """Members drawn from ``vertices`` (duplicates are fine)."""
        return cls(num_vertices, vertices)

    def copy(self) -> "ActiveSet":
        """An independent copy (the mask is duplicated)."""
        out = ActiveSet(self._n)
        out._mask = bytearray(self._mask)
        out._count = self._count
        return out

    # ------------------------------------------------------------------
    # Set-like surface
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Size of the vertex universe (not the member count)."""
        return self._n

    @property
    def mask(self) -> bytearray:
        """The underlying byte mask (``mask[v] == 1`` iff ``v`` is active).

        Exposed for the traversal kernel; treat it as read-only — mutating
        it directly desynchronises the cached member count.
        """
        return self._mask

    def __contains__(self, v: object) -> bool:
        return (
            isinstance(v, int)
            and not isinstance(v, bool)
            and 0 <= v < self._n
            and self._mask[v] != 0
        )

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __iter__(self) -> Iterator[int]:
        return compress(range(self._n), self._mask)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ActiveSet):
            return self._n == other._n and self._mask == other._mask
        if isinstance(other, (set, frozenset)):
            return self._count == len(other) and all(v in self for v in other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"ActiveSet(n={self._n}, active={self._count})"

    def first(self) -> int | None:
        """Smallest active vertex, or ``None`` when empty (O(n) scan)."""
        if self._count == 0:
            return None
        return self._mask.index(1)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, v: int) -> None:
        """Activate ``v`` (idempotent)."""
        self._check(v)
        if not self._mask[v]:
            self._mask[v] = 1
            self._count += 1

    def discard(self, v: int) -> None:
        """Deactivate ``v`` if present."""
        self._check(v)
        if self._mask[v]:
            self._mask[v] = 0
            self._count -= 1

    def remove(self, v: int) -> None:
        """Deactivate ``v``; raise :class:`GraphError` if absent."""
        if v not in self:
            raise GraphError(f"vertex {v} not in active set")
        self.discard(v)

    def difference_update(self, vertices: Iterable[int]) -> None:
        """Deactivate every vertex of ``vertices`` (out-of-range ignored)."""
        mask = self._mask
        n = self._n
        removed = 0
        for v in vertices:
            if 0 <= v < n and mask[v]:
                mask[v] = 0
                removed += 1
        self._count -= removed

    def __isub__(self, vertices: Iterable[int]) -> "ActiveSet":
        self.difference_update(vertices)
        return self

    def _check(self, v: int) -> None:
        if not isinstance(v, int) or isinstance(v, bool):
            raise GraphError(f"vertex must be an int, got {v!r}")
        if not 0 <= v < self._n:
            raise GraphError(f"vertex {v} out of range [0, {self._n})")


def as_active_mask(
    num_vertices: int, active: "Container[int] | ActiveSet | None"
) -> bytearray | None:
    """Coerce any accepted ``active`` argument into a fresh 0/1 byte mask.

    The adapter behind the traversal API's backwards compatibility:

    * ``None`` → ``None`` (meaning "everything active");
    * :class:`ActiveSet` → a *copy* of its mask;
    * ``bytearray``/``bytes`` of length ``n`` → a copy;
    * any iterable of ints (``set``, ``frozenset``, list, dict, range…) →
      mask built from its members;
    * any other ``Container[int]`` → mask built by probing all ``n``
      vertices (the degenerate but supported case).
    """
    if active is None:
        return None
    if isinstance(active, ActiveSet):
        if active.num_vertices != num_vertices:
            raise GraphError(
                f"active set is over {active.num_vertices} vertices, "
                f"graph has {num_vertices}"
            )
        return bytearray(active.mask)
    if isinstance(active, (bytearray, bytes)):
        if len(active) != num_vertices:
            raise GraphError(
                f"mask length {len(active)} does not match {num_vertices} vertices"
            )
        return bytearray(active)
    mask = bytearray(num_vertices)
    try:
        members = iter(active)  # type: ignore[arg-type]
    except TypeError:
        for v in range(num_vertices):
            if v in active:
                mask[v] = 1
        return mask
    for v in members:
        if isinstance(v, int) and 0 <= v < num_vertices:
            mask[v] = 1
    return mask


def blocked_from_active(
    num_vertices: int, active: "Container[int] | ActiveSet | None"
) -> bytearray:
    """The traversal kernel's *blocked* mask: ``1`` = inactive or visited.

    Inverts :func:`as_active_mask` in one C-level ``translate`` pass; the
    kernel then needs a single byte probe per edge to answer "inactive or
    already seen?".  Always returns a fresh mutable mask (the kernel marks
    visits into it).
    """
    if active is None:
        return bytearray(num_vertices)
    if isinstance(active, ActiveSet):
        if active.num_vertices != num_vertices:
            raise GraphError(
                f"active set is over {active.num_vertices} vertices, "
                f"graph has {num_vertices}"
            )
        return active.mask.translate(_INVERT)
    mask = as_active_mask(num_vertices, active)
    assert mask is not None
    return mask.translate(_INVERT)
