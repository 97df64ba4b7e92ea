"""Unit tests for theorem parameter schedules and bound calculators."""

from __future__ import annotations

import math

import pytest

from repro.core import elkin_neiman
from repro.core.params import (
    Theorem1Schedule,
    Theorem2Schedule,
    Theorem3Schedule,
    theorem1_bounds,
    theorem2_bounds,
    theorem3_bounds,
)
from repro.errors import ParameterError
from repro.graphs import path_graph


class TestTheorem1Schedule:
    def test_beta_formula(self):
        s = Theorem1Schedule(n=100, k=4, c=4.0)
        assert s.beta(1) == pytest.approx(math.log(400) / 4)
        assert s.beta(99) == s.beta(1)  # constant rate

    def test_nominal_phases_formula(self):
        s = Theorem1Schedule(n=100, k=4, c=4.0)
        expected = math.ceil(400 ** 0.25 * math.log(400))
        assert s.nominal_phases == expected

    def test_range_cap(self):
        assert Theorem1Schedule(n=64, k=3, c=4.0).range_cap(5) == 3
        assert Theorem1Schedule(n=64, k=3.9, c=4.0).range_cap(5) == 3

    def test_validation(self):
        with pytest.raises(ParameterError):
            Theorem1Schedule(n=10, k=0.5, c=4.0)
        with pytest.raises(ParameterError):
            Theorem1Schedule(n=10, k=2, c=3.0)  # needs c > 3
        with pytest.raises(ParameterError):
            Theorem1Schedule(n=0, k=2, c=4.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ParameterError, match="k must be finite"):
            Theorem1Schedule(n=10, k=bad, c=4.0)
        with pytest.raises(ParameterError, match="c must be finite"):
            Theorem1Schedule(n=10, k=2, c=bad)
        with pytest.raises(ParameterError, match="k must be finite"):
            theorem1_bounds(n=10, k=bad)

    def test_k_equals_ln_n_gives_polylog(self):
        n = 1024
        k = math.ceil(math.log(n))
        s = Theorem1Schedule(n=n, k=k, c=4.0)
        # lambda = (cn)^{1/k} ln(cn) = O(log n): single digits times log.
        assert s.nominal_phases <= 10 * math.log(4 * n)


class TestTheorem2Schedule:
    def test_stage_structure(self):
        s = Theorem2Schedule(n=100, k=3, c=6.0)
        assert len(s.stage_lengths) == len(s.stage_betas)
        assert s.nominal_phases == sum(s.stage_lengths)
        # Stage lengths shrink and betas decrease.
        assert all(
            a >= b for a, b in zip(s.stage_lengths, s.stage_lengths[1:])
        )
        assert all(a > b for a, b in zip(s.stage_betas, s.stage_betas[1:]))

    def test_stage_of(self):
        s = Theorem2Schedule(n=100, k=3, c=6.0)
        assert s.stage_of(1) == 0
        assert s.stage_of(s.stage_lengths[0]) == 0
        assert s.stage_of(s.stage_lengths[0] + 1) == 1
        # Overflow phases stay in the last stage.
        assert s.stage_of(s.nominal_phases + 50) == len(s.stage_lengths) - 1

    def test_stage_of_invalid(self):
        s = Theorem2Schedule(n=100, k=3, c=6.0)
        with pytest.raises(ParameterError):
            s.stage_of(0)

    def test_beta_matches_paper_formula(self):
        s = Theorem2Schedule(n=100, k=3, c=6.0)
        assert s.stage_betas[0] == pytest.approx(math.log(600) / 3)
        assert s.stage_betas[1] == pytest.approx(math.log(600 / math.e) / 3)

    def test_betas_positive(self):
        for n in (2, 10, 1000):
            s = Theorem2Schedule(n=n, k=2, c=6.0)
            assert all(beta > 0 for beta in s.stage_betas)

    def test_total_phases_bounded_by_paper(self):
        # sum s_i <= 4k(cn)^{1/k} + slack for ceilings.
        n, k, c = 500, 4, 6.0
        s = Theorem2Schedule(n=n, k=k, c=c)
        bound = 4 * k * (c * n) ** (1 / k) + len(s.stage_lengths)
        assert s.nominal_phases <= bound

    def test_validation(self):
        with pytest.raises(ParameterError):
            Theorem2Schedule(n=10, k=2, c=5.0)  # needs c > 5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ParameterError, match="k must be finite"):
            Theorem2Schedule(n=10, k=bad, c=6.0)
        with pytest.raises(ParameterError, match="c must be finite"):
            Theorem2Schedule(n=10, k=2, c=bad)


class TestTheorem3Schedule:
    def test_from_lambda(self):
        s = Theorem3Schedule.from_lambda(n=256, lam=3, c=4.0)
        cn = 4.0 * 256
        assert s.k == pytest.approx(cn ** (1 / 3) * math.log(cn))
        assert s.nominal_phases == 3
        assert s.target_colors == 3

    def test_invalid_lambda(self):
        with pytest.raises(ParameterError):
            Theorem3Schedule.from_lambda(n=10, lam=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ParameterError, match="lambda must be finite"):
            Theorem3Schedule.from_lambda(n=10, lam=bad)
        with pytest.raises(ParameterError, match="c must be finite"):
            Theorem3Schedule.from_lambda(n=10, lam=2, c=bad)
        with pytest.raises(ParameterError, match="lambda must be finite"):
            theorem3_bounds(10, bad)


class TestBounds:
    def test_theorem1_bounds(self):
        b = theorem1_bounds(n=100, k=4, c=4.0)
        assert b.diameter == 6
        assert b.colors == pytest.approx(400 ** 0.25 * math.log(400))
        assert b.rounds == pytest.approx(4 * b.colors)
        assert b.failure_probability == pytest.approx(0.75)

    def test_theorem2_bounds(self):
        b = theorem2_bounds(n=100, k=4, c=6.0)
        assert b.diameter == 6
        assert b.colors == pytest.approx(16 * 600 ** 0.25)
        assert b.failure_probability == pytest.approx(5 / 6)

    def test_theorem2_improves_on_theorem1_for_small_k(self):
        # Theorem 2's 4k(cn)^{1/k} beats Theorem 1's (cn)^{1/k}·ln(cn)
        # exactly when ln(cn) > 4k; check pairs inside that regime.
        for n, k in ((10_000, 2), (1_000_000, 3)):
            assert math.log(6.0 * n) > 4 * k  # regime precondition
            assert theorem2_bounds(n, k, 6.0).colors < theorem1_bounds(n, k, 6.0).colors

    def test_theorem3_bounds(self):
        b = theorem3_bounds(n=100, lam=2, c=4.0)
        cn = 400
        k = cn ** 0.5 * math.log(cn)
        assert b.diameter == pytest.approx(2 * k)
        assert b.colors == 2
        assert b.rounds == pytest.approx(2 * k)

    def test_theorem3_validation(self):
        with pytest.raises(ParameterError):
            theorem3_bounds(10, 0)

    def test_tradeoff_inversion(self):
        # Theorem 3 with lambda colours needs diameter ~ the k that
        # Theorem 1 would need to get lambda colours — the paper's
        # "exactly the inverse tradeoff".
        n, c, lam = 1000, 4.0, 3
        b3 = theorem3_bounds(n, lam, c)
        assert b3.colors < theorem1_bounds(n, math.log(n), c).colors
        assert b3.diameter > theorem1_bounds(n, math.log(n), c).diameter


@pytest.mark.parametrize(
    "kwargs", [{"k": 4, "c": math.nan}, {"k": math.nan}, {"k": 4, "c": math.inf}]
)
def test_decompose_rejects_non_finite_parameters(kwargs):
    with pytest.raises(ParameterError, match="must be finite"):
        elkin_neiman.decompose(path_graph(6), **kwargs)
