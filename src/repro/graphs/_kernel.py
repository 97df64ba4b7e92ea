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
:func:`drop_seen`), the full-forwarding round loop built on it
(:func:`flood`), and the per-run reductions over its sorted keys
(:func:`run_heads`, :func:`run_lengths`, :func:`run_argmax`).  The batch
engine's :class:`~repro.engine.numpy_flood.NumpyFlood` shares the round;
the centralized carve (:func:`~repro.core.carving.carve_block`) and the
oracle build (:func:`~repro.oracle.build.compact_scale`) share the loop.

Determinism: both paths emit every BFS level **sorted ascending**, so
results are bit-identical between backends, between runs, and between the
serial and multiprocessing experiment runners.  Set
``REPRO_KERNEL=py`` to force the pure-Python path (used by the
equivalence tests and the kernel benchmark); ``auto`` or empty is the
default, and any other value raises :class:`~repro.errors.ParameterError`.
"""

from __future__ import annotations

import os
from array import array
from typing import Sequence

from ..errors import ParameterError

try:  # numpy is an optional accelerator, never a requirement
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on stdlib-only installs
    _np = None

__all__ = [
    "as_long_array",
    "bfs_levels",
    "backend_name",
    "drop_seen",
    "flood",
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

#: Largest fan-out (candidate arrivals) one round of :func:`flood`
#: expands at once; a wider round is split by origin range.  The carve
#: also caps the arrivals it buffers per fold with it.  At this value the
#: oracle build of ``gnp_fast:10000:0.0006`` peaks within 1 MB of the BFS
#: carve's RSS (at 1 << 16, 3–6 MB above it) with no measurable cost in
#: time (2-core x86-64, CPython 3.11, numpy 2.4).
_SPLIT_FANOUT = 1 << 15


def numpy_enabled() -> bool:
    """Whether the vectorised expansion path is active."""
    return USE_NUMPY and _np is not None


def backend_name() -> str:
    """Human-readable backend tag (``"numpy"`` or ``"python"``)."""
    return "numpy" if numpy_enabled() else "python"


def as_long_array(values) -> array:
    """A numpy integer array copied into a new ``array('l')`` column."""
    column = array("l", [0]) * len(values)
    _np.frombuffer(column, dtype=_np.dtype("l"))[:] = values
    return column


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
# The multi-origin flood round, its round loop and the per-run reductions.
# A round's state is a column of int64 keys ``w * stride + o``, sorted by
# receiver, then by origin.
# ----------------------------------------------------------------------


def frontier_keys(np_indptr, np_indices, live, senders, origins, stride, drop_own=False):
    """The sorted, distinct keys ``w * stride + o`` one round delivers.

    Each sender ``senders[i]`` forwards origin ``origins[i]`` to its
    whole CSR row; receivers outside ``live`` (a 0/1 array over the
    ``n`` vertices, or ``None`` for all of them) are dropped, and so,
    with ``drop_own`` (origins that are vertices), are arrivals back at
    their own origin (``w == o``).  The remaining keys are sorted and
    deduplicated by neighbour diff.
    """
    receivers, fanout = gather_frontier_rows(np_indptr, np_indices, senders)
    if receivers is None:
        return _np.empty(0, dtype=_np.int64)
    origins = _np.repeat(origins, fanout)
    keep = None if live is None else live[receivers] != 0
    if drop_own:
        own = receivers != origins
        keep = own if keep is None else keep & own
    if keep is not None:
        receivers, origins = receivers[keep], origins[keep]
    keys = receivers.astype(_np.int64, copy=False) * stride
    keys += origins
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


def flood(np_indptr, np_indices, live, start, stride: int, arrive) -> bool:
    """Run a multi-origin, full-forwarding flood from the key column ``start``.

    Keys are ``w * stride + o``: vertex ``w`` holds origin ``o``'s entry;
    ``start`` is sorted and ``live`` is as in :func:`frontier_keys`.
    Round ``d = 1, 2, …`` expands the column of entries that travel on
    and drops the arrivals that repeat the last two columns
    (:func:`drop_seen`), which leaves each origin's BFS level ``d``.
    ``arrive(keys, d)`` gets them, sorted, and returns the entries that
    travel on, or ``None`` to stop the whole flood.  The levels stay
    exact as long as what it keeps is decided per origin (the carve's
    reach) or per key, the same way in every round (the oracle's
    membership filter): the flood is then a BFS of each origin's own
    subgraph.

    A column whose senders' rows hold more than :data:`_SPLIT_FANOUT`
    candidates is split by origin range, its previous column with it, and
    the lower half runs to the end before the upper half starts.  Floods
    of different origins never interact, so a split changes only how the
    arrivals are grouped into calls; memory stays bounded on
    small-diameter graphs, where floods cover most of the graph.  Returns
    ``False`` when ``arrive`` stopped the flood, else ``True``.
    """
    pending = [(start, start[:0], 1)]
    while pending:
        column, previous, distance = pending.pop()
        while len(column):
            senders, origins = _np.divmod(column, stride)
            fanout = int((np_indptr[senders + 1] - np_indptr[senders]).sum())
            if fanout > _SPLIT_FANOUT:
                low, high = int(origins.min()), int(origins.max())
                if low < high:
                    middle = (low + high + 1) // 2
                    upper = origins >= middle
                    earlier = previous % stride >= middle
                    pending.append((column[upper], previous[earlier], distance))
                    column, previous = column[~upper], previous[~earlier]
                    continue
            keys = frontier_keys(np_indptr, np_indices, live, senders, origins, stride)
            travel = arrive(drop_seen(keys, (column, previous)), distance)
            if travel is None:
                return False
            previous, column = column, travel
            distance += 1
    return True


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
