"""Unit tests for exponential shift sampling and truncation events."""

from __future__ import annotations

import math
import statistics

import pytest

from repro.core.shifts import (
    find_truncation_events,
    sample_phase_radii,
    sample_radius,
)
from repro.errors import ParameterError
from repro.graphs import ActiveSet


class TestSampleRadius:
    def test_deterministic(self):
        a = sample_radius(1, 2, 3, 0.5)
        b = sample_radius(1, 2, 3, 0.5)
        assert a == b

    def test_distinct_streams(self):
        values = {
            sample_radius(1, phase, vertex, 0.5)
            for phase in range(1, 4)
            for vertex in range(5)
        }
        assert len(values) == 15

    def test_nonnegative(self):
        assert all(sample_radius(7, 1, v, 1.0) >= 0 for v in range(100))

    def test_mean_matches_rate(self):
        beta = 0.7
        values = [sample_radius(3, 1, v, beta) for v in range(4000)]
        assert statistics.mean(values) == pytest.approx(1 / beta, rel=0.1)

    def test_bad_beta(self):
        with pytest.raises(ParameterError):
            sample_radius(1, 1, 1, 0.0)
        with pytest.raises(ParameterError):
            sample_radius(1, 1, 1, -1.0)

    def test_exponential_tail(self):
        # Pr[r >= t] = e^{-beta t}; check at t = 1 within Monte-Carlo noise.
        beta = 1.2
        values = [sample_radius(11, 1, v, beta) for v in range(5000)]
        tail = sum(1 for v in values if v >= 1.0) / len(values)
        assert tail == pytest.approx(math.exp(-beta), abs=0.03)


class TestSamplePhaseRadii:
    def test_covers_vertices(self):
        radii = sample_phase_radii(5, 2, [3, 1, 4], 0.8)
        assert set(radii) == {1, 3, 4}

    def test_matches_individual_draws(self):
        radii = sample_phase_radii(5, 2, [0, 1], 0.8)
        assert radii[0] == sample_radius(5, 2, 0, 0.8)
        assert radii[1] == sample_radius(5, 2, 1, 0.8)
        active = ActiveSet.from_iterable(400, range(3, 400, 2))
        for phase in (1, 2, 7):
            for beta in (0.3, 1.0, 2.5):
                for vertices in (range(300), active):
                    radii = sample_phase_radii(11, phase, vertices, beta)
                    assert list(radii.items()) == [
                        (v, sample_radius(11, phase, v, beta)) for v in vertices
                    ]


class TestTruncationEvents:
    def test_detects_threshold(self):
        radii = {0: 2.0, 1: 5.1, 2: 4.99}
        events = find_truncation_events(radii, phase=3, k=4.0)
        assert len(events) == 1
        assert events[0].vertex == 1
        assert events[0].phase == 3
        assert events[0].threshold == 5.0

    def test_boundary_inclusive(self):
        events = find_truncation_events({0: 5.0}, phase=1, k=4.0)
        assert len(events) == 1  # r >= k + 1 is the event

    def test_sorted_by_vertex(self):
        radii = {5: 9.0, 1: 9.0, 3: 9.0}
        events = find_truncation_events(radii, phase=1, k=2.0)
        assert [e.vertex for e in events] == [1, 3, 5]

    def test_lemma1_frequency(self):
        # Pr[r >= k+1] = e^{-beta(k+1)} = (cn)^{-(k+1)/k}; with n=200,
        # c=4, k=3 that is ~ 800^{-4/3} ~ 1.4e-4 per draw.
        n, c, k = 200, 4.0, 3
        beta = math.log(c * n) / k
        events = 0
        draws = 20_000
        for v in range(draws):
            if sample_radius(13, 1, v, beta) >= k + 1:
                events += 1
        assert events / draws < 1e-3
