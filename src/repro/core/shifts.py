"""Exponential shift sampling (the randomness of the paper's algorithm).

In each phase every live vertex draws ``r_v ~ Exp(β)`` with density
``β·e^{-βx}`` (paper §2).  The draws here are routed through named RNG
streams keyed by ``(seed, phase, vertex)`` so that

* each simulated node can draw *its own* radius knowing only the common
  seed, the phase number and its id — no communication needed; and
* the centralized reference implementation draws *bit-identical* values,
  enabling exact cross-validation of the distributed protocol.

The module also tracks the paper's bad events ``E_v`` (Lemma 1): a draw
``r ≥ k + 1`` would let a broadcast outrun the per-phase round budget.
Lemma 1 shows all such events are avoided with probability ``≥ 1 − 2/c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from ..errors import ParameterError
from ..rng import prefix_uniforms, stream

__all__ = ["sample_radius", "sample_phase_radii", "TruncationEvent", "find_truncation_events"]


@dataclass(frozen=True)
class TruncationEvent:
    """Record of a Lemma-1 bad event: vertex ``vertex`` drew ``r ≥ k + 1``.

    ``phase`` is 1-based, matching the paper's ``t``.
    """

    phase: int
    vertex: int
    radius: float
    threshold: float


def sample_radius(seed: int, phase: int, vertex: int, beta: float) -> float:
    """Draw ``r_v ~ Exp(beta)`` for ``vertex`` at ``phase``.

    Deterministic in ``(seed, phase, vertex, beta)``; the same key always
    returns the same radius.
    """
    if beta <= 0:
        raise ParameterError(f"beta must be positive, got {beta}")
    return stream(seed, "radius", phase, vertex).expovariate(beta)


def sample_phase_radii(
    seed: int, phase: int, vertices: Iterable[int], beta: float
) -> dict[int, float]:
    """Radii for all of ``vertices`` at ``phase`` (one independent draw each).

    Bit-identical to calling :func:`sample_radius` per vertex, but the
    whole-phase form amortises the stream derivation
    (:func:`repro.rng.prefix_uniforms`: the ``(seed, "radius", phase)``
    prefix is hashed once and one generator reseeded per draw) and
    inlines the body of :meth:`random.Random.expovariate`.  At
    :math:`n \\approx 10^5` vertices per phase this is the driver's hot
    loop (see ``benchmarks/bench_engine.py``).
    """
    if beta <= 0:
        raise ParameterError(f"beta must be positive, got {beta}")
    log = math.log
    return {v: -log(1.0 - u) / beta for v, u in prefix_uniforms(seed, ("radius", phase), vertices)}


def find_truncation_events(
    radii: dict[int, float], phase: int, k: float
) -> list[TruncationEvent]:
    """The Lemma-1 events among ``radii``: draws with ``r ≥ k + 1``.

    Returns them sorted by vertex for determinism.
    """
    threshold = k + 1
    return [
        TruncationEvent(phase=phase, vertex=v, radius=r, threshold=threshold)
        for v, r in sorted(radii.items())
        if r >= threshold
    ]
