"""Closed-form parameters and predicted bounds for Theorems 1–3.

Each theorem fixes, as a function of ``(n, k, c)`` (or ``(n, λ, c)``), the
exponential rate ``β``, the number of phases, and the guaranteed
``(diameter, colours, rounds, failure probability)``.  The benchmark
harness compares these predictions against measured values; the drivers in
:mod:`repro.core` consume them as *phase schedules* — an iterable of
``(phase index, β)`` pairs plus a nominal phase budget.

The schedules share one interface so the centralized and distributed
drivers are generic in the theorem being run:

* :meth:`PhaseSchedule.beta` — the rate used at 1-based phase ``t``;
* :attr:`PhaseSchedule.nominal_phases` — the paper's phase budget (the
  graph is exhausted within it w.h.p.; drivers keep carving past it until
  the graph empties, recording whether the budget held).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ParameterError

__all__ = [
    "PhaseSchedule",
    "Theorem1Schedule",
    "Theorem2Schedule",
    "Theorem3Schedule",
    "theorem1_bounds",
    "theorem2_bounds",
    "theorem3_bounds",
    "Bounds",
]


@dataclass(frozen=True)
class Bounds:
    """A theorem's promise: ``(D, χ)`` decomposition, round count, failure prob.

    ``diameter`` bounds the *strong* diameter; ``colors`` bounds χ;
    ``rounds`` bounds distributed running time; the guarantee holds with
    probability at least ``1 − failure_probability``.
    """

    diameter: float
    colors: float
    rounds: float
    failure_probability: float


def _check_common(n: int, c: float, min_c: float) -> None:
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    # Written so that NaN fails too; infinity would overflow ``(cn)^{1/k}``.
    if not min_c < c < math.inf:
        raise ParameterError(f"c must be finite and > {min_c}, got {c}")


def _check_at_least_one(name: str, value: float) -> None:
    """Reject ``value < 1``, NaN and infinity (``k`` and ``λ`` feed
    ``math.ceil`` / ``math.floor``, which raise on the last two)."""
    if not 1 <= value < math.inf:
        raise ParameterError(f"{name} must be finite and >= 1, got {value}")


class PhaseSchedule:
    """Interface shared by the three theorem schedules."""

    #: Number of phases within which the graph empties w.h.p.
    nominal_phases: int

    def beta(self, phase: int) -> float:
        """Exponential rate for 1-based phase ``phase``."""
        raise NotImplementedError

    def range_cap(self, phase: int) -> int:
        """Hop cap for the fixed-length distributed mode at ``phase``.

        Equals ``⌊k⌋`` — the budget that Lemma 1 (or its analogue) makes
        sufficient w.h.p.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Theorem1Schedule(PhaseSchedule):
    """Theorem 1: constant rate ``β = ln(cn)/k`` for ``λ = (cn)^{1/k}·ln(cn)`` phases.

    Guarantee: strong ``(2k−2, (cn)^{1/k}·ln(cn))`` decomposition in
    ``k·(cn)^{1/k}·ln(cn)`` rounds, with probability ``≥ 1 − 3/c``.

    ``k`` may be fractional (Theorem 3 reuses this schedule with a large
    real-valued ``k``); the paper's statement takes integer ``1 ≤ k ≤ ln n``.
    """

    n: int
    k: float
    c: float = 4.0
    nominal_phases: int = field(init=False)

    def __post_init__(self) -> None:
        _check_common(self.n, self.c, 3.0)
        _check_at_least_one("k", self.k)
        cn = self.c * self.n
        object.__setattr__(
            self, "nominal_phases", max(1, math.ceil(cn ** (1.0 / self.k) * math.log(cn)))
        )

    def beta(self, phase: int) -> float:
        return math.log(self.c * self.n) / self.k

    def range_cap(self, phase: int) -> int:
        return max(1, math.floor(self.k))


@dataclass(frozen=True)
class Theorem2Schedule(PhaseSchedule):
    """Theorem 2: staged rates, improving colours to ``4k·(cn)^{1/k}``.

    Stage ``i`` (``0 ≤ i ≤ ln n``) runs ``s_i = ⌈2(cn/eⁱ)^{1/k}⌉`` phases
    with rate ``β_i = ln(cn/eⁱ)/k``.  Decreasing β raises the per-phase
    join probability to a constant per stage (Claim 8: survival to stage
    ``i`` has probability ``≤ e^{−2i}``), which shaves the ``ln(cn)``
    factor off the number of colours.

    Guarantee: strong ``(2k−2, 4k(cn)^{1/k})`` decomposition in
    ``O(k²(cn)^{1/k})`` rounds, with probability ``≥ 1 − 5/c``.
    """

    n: int
    k: float
    c: float = 6.0
    nominal_phases: int = field(init=False)
    _stage_lengths: tuple[int, ...] = field(init=False)
    _stage_betas: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        _check_common(self.n, self.c, 5.0)
        _check_at_least_one("k", self.k)
        cn = self.c * self.n
        num_stages = math.floor(math.log(self.n)) + 1 if self.n > 1 else 1
        lengths: list[int] = []
        betas: list[float] = []
        for i in range(num_stages):
            ratio = cn / math.exp(i)
            if ratio <= 1.0:
                break  # β would be non-positive; cannot happen for i ≤ ln n, c > 5
            lengths.append(max(1, math.ceil(2.0 * ratio ** (1.0 / self.k))))
            betas.append(math.log(ratio) / self.k)
        object.__setattr__(self, "_stage_lengths", tuple(lengths))
        object.__setattr__(self, "_stage_betas", tuple(betas))
        object.__setattr__(self, "nominal_phases", sum(lengths))

    @property
    def stage_lengths(self) -> tuple[int, ...]:
        """Phases per stage (``s_i`` in the paper)."""
        return self._stage_lengths

    @property
    def stage_betas(self) -> tuple[float, ...]:
        """Rate per stage (``β_i`` in the paper)."""
        return self._stage_betas

    def stage_of(self, phase: int) -> int:
        """Stage index of 1-based ``phase`` (the last stage absorbs overflow)."""
        if phase < 1:
            raise ParameterError(f"phase must be >= 1, got {phase}")
        remaining = phase
        for i, length in enumerate(self._stage_lengths):
            if remaining <= length:
                return i
            remaining -= length
        return len(self._stage_lengths) - 1

    def beta(self, phase: int) -> float:
        return self._stage_betas[self.stage_of(phase)]

    def range_cap(self, phase: int) -> int:
        return max(1, math.floor(self.k))


@dataclass(frozen=True)
class Theorem3Schedule(Theorem1Schedule):
    """Theorem 3 (high-radius regime): few colours, large diameter.

    For a target of ``λ ≤ ln n`` colours, run Theorem 1's procedure with
    ``k = (cn)^{1/λ}·ln(cn)`` — the inverse trade-off.  The graph empties
    within ``λ`` phases w.h.p., giving a strong
    ``(2(cn)^{1/λ}·ln(cn), λ)`` decomposition in ``λ·(cn)^{1/λ}·ln(cn)``
    rounds, with probability ``≥ 1 − 3/c``.

    Constructed via :meth:`from_lambda`.
    """

    target_colors: int = 0

    @staticmethod
    def from_lambda(n: int, lam: int, c: float = 4.0) -> "Theorem3Schedule":
        """Build the schedule from the desired number of colours ``lam``."""
        _check_common(n, c, 3.0)
        _check_at_least_one("lambda", lam)
        cn = c * n
        k = cn ** (1.0 / lam) * math.log(cn)
        schedule = Theorem3Schedule(n=n, k=max(1.0, k), c=c, target_colors=lam)
        # Phase budget is λ in this regime, not (cn)^{1/k}·ln(cn).
        object.__setattr__(schedule, "nominal_phases", lam)
        return schedule


# ----------------------------------------------------------------------
# Predicted bounds (the rows of EXPERIMENTS.md)
# ----------------------------------------------------------------------
def theorem1_bounds(n: int, k: float, c: float = 4.0) -> Bounds:
    """Theorem 1's promised ``(D, χ, rounds, failure)`` for ``(n, k, c)``."""
    schedule = Theorem1Schedule(n=n, k=k, c=c)
    cn = c * n
    lam = cn ** (1.0 / k) * math.log(cn)
    return Bounds(
        diameter=2 * k - 2,
        colors=lam,
        rounds=k * lam,
        failure_probability=3.0 / c,
    )


def theorem2_bounds(n: int, k: float, c: float = 6.0) -> Bounds:
    """Theorem 2's promised ``(D, χ, rounds, failure)`` for ``(n, k, c)``."""
    Theorem2Schedule(n=n, k=k, c=c)  # parameter validation
    cn = c * n
    colors = 4.0 * k * cn ** (1.0 / k)
    return Bounds(
        diameter=2 * k - 2,
        colors=colors,
        rounds=k * colors,  # O(k²(cn)^{1/k})
        failure_probability=5.0 / c,
    )


def theorem3_bounds(n: int, lam: int, c: float = 4.0) -> Bounds:
    """Theorem 3's promised ``(D, χ, rounds, failure)`` for ``(n, λ, c)``."""
    _check_at_least_one("lambda", lam)
    _check_common(n, c, 3.0)
    cn = c * n
    k = cn ** (1.0 / lam) * math.log(cn)
    return Bounds(
        diameter=2.0 * k,  # 2(cn)^{1/λ}·ln(cn)
        colors=float(lam),
        rounds=lam * k,
        failure_probability=3.0 / c,
    )
