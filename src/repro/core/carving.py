"""The single-phase carving kernel (paper §2, "Construction").

Given the current graph :math:`G_t` (as an active vertex set) and one
radius ``r_v`` per active vertex, this module computes the block
:math:`W_t`:

1. every vertex ``v`` *broadcasts* ``r_v`` to its ``⌊r_v⌋``-neighbourhood
   in :math:`G_t`;
2. every vertex ``y`` records ``m_i = r_{v_i} − d_{G_t}(y, v_i)`` for each
   broadcast that reaches it (its own included, with ``m = r_y``);
3. ``y`` joins :math:`W_t` **iff** ``m₁ − m₂ > 1``, where ``m₁ ≥ m₂`` are
   the two largest recorded values and ``m₂ = 0`` when only one broadcast
   arrived.  The argmax vertex ``v₁`` is ``y``'s *center*.

The same kernel runs inside the centralized drivers (Theorems 1–3) and is
the ground truth the distributed protocol is cross-validated against.

Steps 1–2 have two paths, picked at call time by the kernel switch
(:func:`~repro.graphs._kernel.numpy_enabled`, i.e. ``REPRO_KERNEL``) with
no size threshold — the rule the batch engine's flood epoch follows:

* **numpy** — all of the phase's broadcasts run as one multi-origin,
  full-forwarding flood over the active set, built on the kernel's
  flood-round helpers.  Each origin's flood is then exactly its bounded
  BFS, and each round's arrivals fold into per-vertex top-two columns.
  Floods of different origins never interact, so a round whose senders'
  rows hold more than :data:`_SPLIT_FANOUT` candidates is split by
  origin range and one half finished before the other: the result is
  the same for any split, and memory stays bounded on small-diameter
  graphs, where balls cover most of the graph.
* **pure Python** — one bounded BFS per broadcast over a shared scratch
  mask, one :meth:`TopTwo.offer` per (vertex, origin) pair.  It is the
  reference the numpy path is tested against, and on the stdlib path it
  is faster than a carve on the batch engine's ``ShiftedFlood``.

Both paths give the same blocks, centers and records, ``second_origin``
and ``count`` included.

Tie-breaking: radii are continuous, so exact ties between shifted values
have probability zero; for bit-level determinism we still order competitors
by ``(m, -origin)`` so equal values resolve toward the smaller origin id.
This choice can only matter on measure-zero events and never affects the
guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Container, Mapping

from ..errors import ParameterError
from ..graphs import _kernel
from ..graphs._kernel import (
    bfs_levels,
    drop_seen,
    frontier_keys,
    numpy_enabled,
    run_argmax,
    run_heads,
    run_lengths,
)
from ..graphs.activeset import ActiveSet, blocked_from_active
from ..graphs.graph import Graph

__all__ = ["TopTwo", "PhaseOutcome", "carve_block", "broadcast_reach"]

#: Largest fan-out (candidate arrivals) one round of the numpy carve's
#: flood expands at once; a wider round is split by origin range.  It
#: also caps the arrivals buffered per fold.  At this value the oracle
#: build of ``gnp_fast:10000:0.0006`` peaks within 1 MB of the BFS
#: carve's RSS (at 1 << 16, 3–6 MB above it) with no measurable cost in
#: time (2-core x86-64, CPython 3.11, numpy 2.4).
_SPLIT_FANOUT = 1 << 15


@dataclass
class TopTwo:
    """The two largest shifted values seen by one vertex.

    ``best`` / ``second`` are the values ``m₁`` / ``m₂``; ``best_origin``
    is the center candidate ``v₁``.  ``second`` defaults to 0.0, the
    paper's convention when no second broadcast arrives.
    """

    best: float = -math.inf
    best_origin: int = -1
    second: float = 0.0
    second_origin: int = -1
    count: int = 0

    def offer(self, value: float, origin: int) -> None:
        """Account for a broadcast with shifted value ``value`` from ``origin``."""
        self.count += 1
        if value > self.best or (value == self.best and origin < self.best_origin):
            if self.count > 1:
                self.second, self.second_origin = self.best, self.best_origin
            self.best, self.best_origin = value, origin
        elif self.count > 1 and (
            self.second_origin == -1
            or value > self.second
            or (value == self.second and origin < self.second_origin)
        ):
            self.second, self.second_origin = value, origin

    @property
    def gap(self) -> float:
        """``m₁ − m₂`` (with the ``m₂ = 0`` convention for lone broadcasts)."""
        second = self.second if self.count > 1 else 0.0
        return self.best - second

    @property
    def joins(self) -> bool:
        """The paper's join rule: ``m₁ − m₂ > 1``."""
        return self.gap > 1.0

    def joins_with_threshold(self, threshold: float) -> bool:
        """Generalised join rule ``m₁ − m₂ > threshold`` (ablation only).

        The paper's constant is 1 — exactly the per-hop decay of the
        shifted values, which is what makes Claim 3 (shortest-path
        closure, hence *strong* diameter) go through.  Thresholds below 1
        break that closure and produce disconnected clusters; thresholds
        above 1 only shrink blocks and slow exhaustion.  Exercised by
        ``benchmarks/bench_ablation.py``.
        """
        return self.gap > threshold


@dataclass(eq=False)
class PhaseOutcome:
    """Result of carving one block.

    Attributes
    ----------
    block:
        The carved block ``W_t`` (vertices joining this phase).
    center_of:
        For every vertex of ``block``, the center it chose.
    top_two:
        Per active vertex, its :class:`TopTwo` record — kept so analyses
        (gap distributions, Lemma 5 checks) can inspect the full outcome.
        The numpy carve keeps the records as per-vertex columns and
        builds the dict on first read; the drivers never read it.
    """

    block: set[int] = field(default_factory=set)
    center_of: dict[int, int] = field(default_factory=dict)
    _records: dict[int, TopTwo] = field(default_factory=dict, init=False, repr=False)
    _columns: tuple | None = field(default=None, init=False, repr=False)

    @property
    def top_two(self) -> dict[int, TopTwo]:
        if self._columns is not None:
            vertices, *fields = (column.tolist() for column in self._columns)
            self._records = dict(zip(vertices, map(TopTwo, *fields)))
            self._columns = None
        return self._records

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseOutcome):
            return NotImplemented
        return (self.block, self.center_of, self.top_two) == (
            other.block,
            other.center_of,
            other.top_two,
        )


def broadcast_reach(radius: float, range_cap: int | None) -> int:
    """Hop range of a broadcast with radius ``radius``: ``⌊r⌋``, optionally capped.

    The cap models the fixed per-phase round budget of the distributed
    protocol (``k`` rounds — Lemma 1 guarantees the cap is w.h.p. inactive).
    """
    if radius < 0:
        raise ParameterError(f"radius must be >= 0, got {radius}")
    if not math.isfinite(radius):
        raise ParameterError(f"radius must be finite, got {radius}")
    reach = math.floor(radius)
    if range_cap is not None:
        reach = min(reach, range_cap)
    return reach


def carve_block(
    graph: Graph,
    active: Container[int] | ActiveSet,
    radii: Mapping[int, float],
    range_cap: int | None = None,
    gap_threshold: float = 1.0,
) -> PhaseOutcome:
    """Carve one block out of ``G[active]`` using the given radii.

    Parameters
    ----------
    graph:
        Host graph.
    active:
        The vertices of the current graph :math:`G_t`.  Must contain
        exactly the keys of ``radii``.
    radii:
        ``vertex -> r_v`` for every active vertex.
    range_cap:
        Optional hop cap on every broadcast (the distributed protocol's
        per-phase round budget; ``None`` reproduces the paper's idealised
        unbounded broadcast).
    gap_threshold:
        The join rule's gap (paper: 1.0).  Exposed **for ablation
        studies only** — any value below 1 voids the strong-diameter
        guarantee (see :meth:`TopTwo.joins_with_threshold`).

    Returns
    -------
    PhaseOutcome
        Block, chosen centers and per-vertex top-two records.

    Raises
    ------
    ParameterError
        When a radius is given for an inactive vertex, or a radius is
        negative or not finite.

    Notes
    -----
    Every vertex hears at least its own broadcast (distance 0 is always
    within range since ``⌊r⌋ ≥ 0``), so ``m₁`` is always defined — matching
    the paper's observation that an isolated vertex joins iff ``r_y > 1``.
    """
    scratch = blocked_from_active(graph.num_vertices, active)
    if numpy_enabled():
        return _carve_flood(graph, scratch, radii, range_cap, gap_threshold)
    return _carve_bfs(graph, scratch, radii, range_cap, gap_threshold)


def _carve_bfs(graph, scratch, radii, range_cap, gap_threshold) -> PhaseOutcome:
    """The pure-Python carve: one bounded BFS per broadcast."""
    outcome = PhaseOutcome()
    top_two = outcome.top_two
    # One shared scratch mask (1 = inactive-or-visited) serves every
    # broadcast of the phase: each bounded BFS marks the vertices it
    # reaches and un-marks them afterwards, so the phase allocates O(n)
    # once instead of per broadcast.
    for v in sorted(radii):
        if not 0 <= v < graph.num_vertices or scratch[v]:
            raise ParameterError(f"radius given for inactive vertex {v}")
        top_two[v] = TopTwo()
    for v in sorted(radii):
        r_v = radii[v]
        reach = broadcast_reach(r_v, range_cap)
        # Bounded BFS from v over the active set, offering r_v - d to
        # every vertex reached (level d).
        top_two[v].offer(r_v, v)
        if reach == 0:
            continue
        levels = bfs_levels(graph, [v], scratch, radius=reach)
        for distance in range(1, len(levels)):
            value = r_v - distance
            for w in levels[distance]:
                top_two[w].offer(value, v)
        for level in levels:
            for w in level:
                scratch[w] = 0
    for y, record in top_two.items():
        if record.joins_with_threshold(gap_threshold):
            outcome.block.add(y)
            outcome.center_of[y] = record.best_origin
    return outcome


def _carve_flood(graph, scratch, radii, range_cap, gap_threshold) -> PhaseOutcome:
    """The numpy carve: every broadcast of the phase as one multi-origin,
    full-forwarding flood, folded into per-vertex top-two columns.

    A round's column holds the keys ``w * n + o`` of the entries that
    travel on: origin ``o``'s whole BFS level, while ``o``'s reach lasts.
    Its arrivals that repeat the last two columns are dropped, which
    leaves each origin's next BFS level.  A column whose senders' rows
    hold more than :data:`_SPLIT_FANOUT` candidates is split by origin
    range, its previous column with it, and the lower half runs to the
    end before the upper half starts.
    """
    np = _kernel._np
    n = graph.num_vertices
    vertices = np.fromiter(radii, dtype=np.int64, count=len(radii))
    radius = np.fromiter(radii.values(), dtype=np.float64, count=len(radii))
    order = vertices.argsort()
    vertices, radius = vertices[order], radius[order]
    live = np.frombuffer(scratch, dtype=np.uint8) == 0
    inactive = (vertices < 0) | (vertices >= n)
    inactive[~inactive] = ~live[vertices[~inactive]]
    if inactive.any():
        v = int(vertices[inactive.argmax()])
        raise ParameterError(f"radius given for inactive vertex {v}")
    invalid = ~((radius >= 0) & (radius < np.inf))
    if invalid.any():
        broadcast_reach(radii[int(vertices[invalid.argmax()])], range_cap)
    # No flood travels n hops, so clipping at n keeps the cast exact.
    cap = n if range_cap is None else min(range_cap, n)
    reach = np.zeros(n, dtype=np.int64)
    reach[vertices] = np.floor(np.minimum(radius, cap))
    value = np.zeros(n)
    value[vertices] = radius
    fold = _TopTwoColumns(n, vertices, radius)
    indptr, indices = graph._numpy_csr()
    own = vertices[reach[vertices] >= 1]
    pending = [(own * n + own, own[:0], 1)]
    while pending:
        column, previous, distance = pending.pop()
        while len(column):
            senders, origins = np.divmod(column, n)
            fanout = int((indptr[senders + 1] - indptr[senders]).sum())
            if fanout > _SPLIT_FANOUT:
                low, high = int(origins.min()), int(origins.max())
                if low < high:
                    middle = (low + high + 1) // 2
                    upper = origins >= middle
                    earlier = previous % n >= middle
                    pending.append((column[upper], previous[earlier], distance))
                    column, previous = column[~upper], previous[~earlier]
                    continue
            keys = frontier_keys(indptr, indices, live, senders, origins)
            keys = drop_seen(keys, (column, previous))
            o = keys % n
            fold.add(keys, value[o] - distance)
            previous, column = column, keys[reach[o] > distance]
            distance += 1
    return fold.outcome(vertices, gap_threshold)


class _TopTwoColumns:
    """:class:`TopTwo` records as per-vertex numpy columns.

    Arrivals are buffered and folded in under the records' order — the
    larger value wins, the smaller origin on ties — so the columns match
    :meth:`TopTwo.offer` for any order and split of the arrivals.  The
    buffer is folded once it holds more than :data:`_SPLIT_FANOUT`
    arrivals, which on small graphs means once per carve.
    """

    def __init__(self, n: int, vertices, radius) -> None:
        np = _kernel._np
        self.n = n
        self.keys: list = []
        self.shifted: list = []
        self.buffered = 0
        # Every vertex first holds its own broadcast, at distance 0.
        self.best = np.full(n, -np.inf)
        self.best[vertices] = radius
        self.best_origin = np.full(n, -1, dtype=np.int64)
        self.best_origin[vertices] = vertices
        self.second = np.full(n, -np.inf)
        self.second_origin = np.full(n, -1, dtype=np.int64)
        self.count = np.zeros(n, dtype=np.int64)
        self.count[vertices] = 1

    def add(self, keys, shifted) -> None:
        """Buffer one round's arrivals: sorted keys ``w * n + o``, each an
        origin new to its receiver, and their shifted values."""
        if len(keys):
            self.keys.append(keys)
            self.shifted.append(shifted)
            self.buffered += len(keys)
            if self.buffered > _SPLIT_FANOUT:
                self._fold()

    def _fold(self) -> None:
        """Fold the buffered arrivals into the columns."""
        np = _kernel._np
        keys, shifted = np.concatenate(self.keys), np.concatenate(self.shifted)
        if len(self.keys) > 1:
            # Each round's keys are sorted, so the stable sort merges runs.
            order = keys.argsort(kind="stable")
            keys, shifted = keys[order], shifted[order]
        self.keys, self.shifted, self.buffered = [], [], 0
        w, o = np.divmod(keys, self.n)
        heads = run_heads(w)
        receiver = w[heads]
        sizes = run_lengths(heads, len(w))
        self.count[receiver] += sizes
        if len(heads) == len(w):
            top, top_origin = shifted, o
            runner = np.full(len(w), -np.inf)
            runner_origin = o
        else:
            top_at = run_argmax(shifted, heads, sizes)
            top, top_origin = shifted[top_at], o[top_at]
            rest = shifted.copy()
            rest[top_at] = -np.inf
            runner_at = run_argmax(rest, heads, sizes)
            runner, runner_origin = rest[runner_at], o[runner_at]
        best, best_origin = self.best[receiver], self.best_origin[receiver]
        wins = _beats(top, top_origin, best, best_origin)
        # The new runner-up is the better of the displaced best and the
        # batch's runner-up when the batch's top wins, else of the held
        # runner-up and the batch's top.
        held = np.where(wins, best, self.second[receiver])
        held_origin = np.where(wins, best_origin, self.second_origin[receiver])
        new = np.where(wins, runner, top)
        new_origin = np.where(wins, runner_origin, top_origin)
        take = _beats(new, new_origin, held, held_origin)
        self.second[receiver] = np.where(take, new, held)
        self.second_origin[receiver] = np.where(take, new_origin, held_origin)
        self.best[receiver] = np.where(wins, top, best)
        self.best_origin[receiver] = np.where(wins, top_origin, best_origin)

    def outcome(self, vertices, gap_threshold: float) -> PhaseOutcome:
        """The block, its centers and (lazily) the records of ``vertices``."""
        np = _kernel._np
        if self.buffered:
            self._fold()
        count = self.count[vertices]
        best = self.best[vertices]
        best_origin = self.best_origin[vertices]
        # A lone broadcast reads m₂ = 0; its runner-up origin stayed -1.
        second = np.where(count == 1, 0.0, self.second[vertices])
        second_origin = self.second_origin[vertices]
        joins = best - second > gap_threshold
        joined = vertices[joins].tolist()
        outcome = PhaseOutcome(set(joined), dict(zip(joined, best_origin[joins].tolist())))
        outcome._columns = (vertices, best, best_origin, second, second_origin, count)
        return outcome


def _beats(value, origin, other, other_origin):
    """Where ``(value, origin)`` ranks above ``(other, other_origin)``."""
    return (value > other) | ((value == other) & (origin < other_origin))
