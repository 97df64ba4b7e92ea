"""Golden oracle tables: fixed seeds must rebuild byte-identical scales.

``tests/data/golden_oracle.json`` holds, per build, the SHA-256 of every
scale's six columns, its ``(radius, min_distance, is_components)``, the
build's skipped radii and its stretch bound.  The builds cover a torus and
a grid (full geometric ladders), sparse G(n, p) graphs that skip a scale at
the default budget, a disconnected graph with isolated vertices, and a
build under a tight budget.  The suite runs on both kernels (CI's
``REPRO_KERNEL=py`` leg includes ``tests/oracle``), so the fixture pins the
numpy and the pure-Python build alike.

Regenerate (only for a deliberate change of the tables) with
``PYTHONPATH=src python tests/oracle/test_golden_tables.py``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.graphs import parse_graph_spec
from repro.oracle import build_oracle

FIXTURE = pathlib.Path(__file__).parent.parent / "data" / "golden_oracle.json"

#: ``(graph spec, seed, overlap budget)``; the graph and the build share the seed.
CASES = [
    ("torus:20:20", 3, 8.0),
    ("grid:18:14", 4, 8.0),
    ("gnp_fast:1500:0.004", 5, 8.0),
    ("er:300:0.004", 6, 8.0),
    ("gnp_fast:600:0.02", 8, 8.0),
    ("er:300:0.004", 6, 1.5),
]
COLUMNS = ("centers", "ecc", "indptr", "member_cluster", "member_dist", "member_parent")


def _case_id(spec: str, seed: int, budget: float) -> str:
    return f"{spec}|seed={seed}|budget={budget}"


def _digest(column) -> str:
    """SHA-256 of a column's decimal text (independent of the C long width)."""
    return hashlib.sha256(",".join(map(str, column)).encode("ascii")).hexdigest()


def fingerprint(oracle) -> dict:
    """The fixture record of one build."""
    return {
        "scales": [
            {
                "radius": scale.radius,
                "min_distance": scale.min_distance,
                "is_components": scale.is_components,
                **{name: _digest(getattr(scale, name)) for name in COLUMNS},
            }
            for scale in oracle.scales
        ],
        "skipped_radii": list(oracle.skipped_radii),
        "stretch_bound": oracle.stretch_bound,
    }


def _build(spec: str, seed: int, budget: float):
    return build_oracle(parse_graph_spec(spec, seed=seed), seed=seed, overlap_budget=budget)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf8"))


@pytest.mark.parametrize("spec,seed,budget", CASES, ids=[_case_id(*case) for case in CASES])
def test_oracle_tables_golden(golden, spec, seed, budget):
    assert fingerprint(_build(spec, seed, budget)) == golden[_case_id(spec, seed, budget)]


def test_fixture_covers_skips_and_the_full_ladder(golden):
    """The fixture exercises what it claims: a skipped scale at the default
    budget, one under the tight budget, and a build that skips nothing."""
    skipped = {key: record["skipped_radii"] for key, record in golden.items()}
    assert any(radii for key, radii in skipped.items() if key.endswith("budget=8.0"))
    assert any(radii for key, radii in skipped.items() if key.endswith("budget=1.5"))
    assert any(not radii for radii in skipped.values())


if __name__ == "__main__":
    records = {_case_id(*case): fingerprint(_build(*case)) for case in CASES}
    FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf8")
    print(f"wrote {len(records)} builds to {FIXTURE}")
