"""The frontier-list BFS kernel over CSR adjacency buffers.

Paper context: every primitive of the reproduction — the §2 carving
broadcasts, the CONGEST simulation, the Linial–Saks and MPX baselines and
all diameter verification — reduces to breadth-first expansion over the
current graph :math:`G_t`.  This module is that single hot loop, written
once against the flat CSR representation of
:class:`~repro.graphs.graph.Graph`:

* traversal state is a *blocked* ``bytearray`` (``1`` = inactive-or-seen),
  so the per-edge filter is one byte probe instead of a Python ``set``
  membership call;
* expansion is level-synchronous ("frontier lists"), which both matches
  the round structure of the simulated distributed algorithms and lets
  wide frontiers be expanded in bulk;
* when numpy is importable (it is an **optional** accelerator — the
  kernel is fully functional without it) wide frontiers are expanded with
  vectorised gathers over zero-copy views of the CSR buffers.  Narrow
  frontiers always take the plain-Python path: per-level numpy dispatch
  overhead would dominate on high-diameter graphs.

The module also holds the numpy round of a *multi-origin* flood, one
record per (vertex, origin) pair (:func:`frontier_keys`,
:func:`drop_seen`), and the per-run reductions over its sorted keys
(:func:`run_heads`, :func:`run_lengths`, :func:`run_argmax`).  The batch
engine's :class:`~repro.engine.numpy_flood.NumpyFlood` and the
centralized carve (:func:`~repro.core.carving.carve_block`) share them.

Determinism: both paths emit every BFS level **sorted ascending**, so
results are bit-identical between backends, between runs, and between the
serial and multiprocessing experiment runners.  Set
``REPRO_KERNEL=py`` to force the pure-Python path (used by the
equivalence tests and the kernel benchmark); ``auto`` or empty is the
default, and any other value raises :class:`~repro.errors.ParameterError`.
"""

from __future__ import annotations

import os
from typing import Sequence

from ..errors import ParameterError

try:  # numpy is an optional accelerator, never a requirement
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on stdlib-only installs
    _np = None

__all__ = [
    "bfs_levels",
    "backend_name",
    "drop_seen",
    "frontier_keys",
    "gather_frontier_rows",
    "numpy_enabled",
    "run_argmax",
    "run_heads",
    "run_lengths",
]

#: Frontier width at which vectorised expansion starts to win over the
#: plain-Python loop (measured on CPython 3.11; the crossover is flat
#: between ~32 and ~128, see benchmarks/bench_kernel.py).
_NUMPY_FRONTIER_THRESHOLD = 64

#: ``REPRO_KERNEL``, ignoring case and surrounding whitespace: ``py``
#: forces the pure-Python paths; ``auto`` or empty (the default) uses numpy
#: when it is importable.  Any other value is rejected.
_MODE = os.environ.get("REPRO_KERNEL", "auto").strip().lower()
if _MODE not in ("", "auto", "py"):
    raise ParameterError(
        f"REPRO_KERNEL must be empty, 'auto' or 'py', got "
        f"{os.environ['REPRO_KERNEL']!r}"
    )

USE_NUMPY = _np is not None and _MODE != "py"


def numpy_enabled() -> bool:
    """Whether the vectorised expansion path is active."""
    return USE_NUMPY and _np is not None


def backend_name() -> str:
    """Human-readable backend tag (``"numpy"`` or ``"python"``)."""
    return "numpy" if numpy_enabled() else "python"


def gather_frontier_rows(np_indptr, np_indices, frontier):
    """Concatenated CSR rows of ``frontier`` plus per-row counts.

    The vectorised row-gather idiom shared by the BFS kernel and the
    batch engine's scatter primitives: for a frontier of vertices,
    returns ``(neighbors, counts)`` where ``neighbors`` is the
    concatenation of each frontier vertex's CSR row (in frontier order)
    and ``counts[i]`` is the degree of ``frontier[i]``.  ``neighbors``
    is ``None`` when the frontier has no outgoing entries.
    """
    starts = np_indptr[frontier]
    counts = np_indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return None, counts
    ends = _np.cumsum(counts)
    gather = _np.repeat(starts - (ends - counts), counts)
    gather += _np.arange(total, dtype=gather.dtype)
    return np_indices[gather], counts


# ----------------------------------------------------------------------
# The multi-origin flood round and its per-run reductions.  A round's
# state is a column of int64 keys ``w * n + o``, sorted by receiver,
# then by origin.
# ----------------------------------------------------------------------


def frontier_keys(np_indptr, np_indices, live, senders, origins):
    """The sorted, distinct keys ``w * n + o`` one round delivers.

    Each sender ``senders[i]`` forwards origin ``origins[i]`` to its
    whole CSR row; receivers outside ``live`` (a 0/1 array over the ``n``
    vertices) and arrivals back at their own origin (``w == o``) are
    dropped, and the remaining keys are sorted and deduplicated by
    neighbour diff.
    """
    receivers, fanout = gather_frontier_rows(np_indptr, np_indices, senders)
    if receivers is None:
        return _np.empty(0, dtype=_np.int64)
    origins = _np.repeat(origins, fanout)
    keep = (live[receivers] != 0) & (receivers != origins)
    keys = receivers[keep].astype(_np.int64, copy=False) * len(live)
    keys += origins[keep]
    keys.sort()
    return keys[run_heads(keys)]


def drop_seen(keys, seen):
    """``keys`` minus every key held by the sorted arrays in ``seen``.

    Under full forwarding a flood's arrivals are BFS levels: a key that
    repeats one of the last two rounds' keys is an entry the receiver
    already holds, so those two arrays are the flood's only memory.
    """
    for recent in seen:
        if len(recent) and len(keys):
            at = recent.searchsorted(keys)
            keys = keys[recent.take(at, mode="clip") != keys]
    return keys


def run_heads(sorted_ids):
    """Start positions of the runs of equal values in ``sorted_ids``."""
    edge = _np.empty(len(sorted_ids), dtype=bool)
    edge[:1] = True
    _np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=edge[1:])
    return edge.nonzero()[0]


def run_lengths(heads, total: int):
    """Lengths of the runs starting at ``heads`` in an array of ``total``."""
    lengths = _np.empty_like(heads)
    _np.subtract(heads[1:], heads[:-1], out=lengths[:-1])
    lengths[-1:] = total - heads[-1:]
    return lengths


def run_argmax(values, heads, sizes):
    """Per run, the position of its largest value — the first on ties,
    which is the smallest origin when runs are sorted by origin."""
    top = _np.maximum.reduceat(values, heads)
    at_top = values == _np.repeat(top, sizes)
    ranks = _np.where(at_top, _np.arange(len(values)), len(values))
    return _np.minimum.reduceat(ranks, heads)


def bfs_levels(
    graph,
    sources: Sequence[int],
    blocked: bytearray,
    radius: int | None = None,
) -> list[list[int]]:
    """Level-synchronous BFS from ``sources`` over ``graph``'s CSR buffers.

    Parameters
    ----------
    graph:
        A :class:`~repro.graphs.graph.Graph` (anything exposing ``csr()``).
    sources:
        Starting vertices, **sorted ascending and not blocked**; they form
        level 0.  The caller is responsible for both invariants (the
        public wrappers in :mod:`~repro.graphs.traversal` enforce them).
    blocked:
        The 0/1 byte mask from
        :func:`~repro.graphs.activeset.blocked_from_active`; ``1`` means
        "do not enter" (inactive **or** already visited).  Mutated in
        place: every returned vertex is marked ``1``, which is what lets
        callers run many BFS passes over one shared mask
        (connected components, the carving scratch mask).
    radius:
        Maximum depth to expand to (``None`` = unbounded).

    Returns
    -------
    list[list[int]]
        ``levels[d]`` is the sorted list of vertices at distance exactly
        ``d`` from the nearest source.  ``levels[0] == list(sources)``.
    """
    indptr, indices = graph.csr()
    level: list[int] = list(sources)
    levels: list[list[int]] = [level]
    for v in level:
        blocked[v] = 1
    if USE_NUMPY:
        np_indptr, np_indices = graph._numpy_csr()
        np_blocked = _np.frombuffer(blocked, dtype=_np.uint8)
        shrink_threshold = max(len(blocked) >> 4, 1)
    depth = 0
    while level and (radius is None or depth < radius):
        depth += 1
        if USE_NUMPY and len(level) >= _NUMPY_FRONTIER_THRESHOLD:
            # Vectorised expansion: gather all frontier rows from the CSR
            # buffers, drop blocked targets, dedupe into a sorted level.
            frontier = _np.asarray(level, dtype=np_indptr.dtype)
            neighbors, _counts = gather_frontier_rows(np_indptr, np_indices, frontier)
            if neighbors is None:
                break
            neighbors = neighbors[np_blocked[neighbors] == 0]
            if neighbors.size > shrink_threshold:
                # Wide level: O(n) flag-array dedupe beats sorting.
                flags = _np.zeros(len(blocked), dtype=bool)
                flags[neighbors] = True
                unique = _np.flatnonzero(flags)
            else:
                unique = _np.unique(neighbors)
            np_blocked[unique] = 1
            level = unique.tolist()
        else:
            next_level: list[int] = []
            append = next_level.append
            for u in level:
                for w in indices[indptr[u] : indptr[u + 1]]:
                    if not blocked[w]:
                        blocked[w] = 1
                        append(w)
            next_level.sort()
            level = next_level
        if level:
            levels.append(level)
    return levels
