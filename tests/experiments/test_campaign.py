"""Campaign model: registry, grids, sharding, planning, keyed rows."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.errors import ParameterError
from repro.experiments import (
    CAMPAIGNS,
    ALGORITHMS,
    Campaign,
    CampaignJournal,
    CampaignMember,
    ResultCache,
    SCENARIOS,
    campaign_names,
    campaign_rows,
    get_campaign,
    grid_points,
    plan_campaign,
    run_campaign,
    run_experiment,
)


class TestGridPoints:
    def test_cartesian_product(self):
        points = grid_points(("a:1", "b:2"), algo=("en", "ls"), k=3)
        assert len(points) == 4
        assert points[0].graph == "a:1"
        assert dict(points[0].params) == {"algo": "en", "k": 3}
        assert dict(points[1].params) == {"algo": "ls", "k": 3}
        assert points[2].graph == "b:2"

    def test_scalars_are_singletons(self):
        points = grid_points(("g:1",), k=4, c=2.0)
        assert len(points) == 1
        assert dict(points[0].params) == {"k": 4, "c": 2.0}

    def test_empty_rejected(self):
        with pytest.raises(ParameterError, match="graph spec"):
            grid_points(())
        with pytest.raises(ParameterError, match="no values"):
            grid_points(("g:1",), k=())


class TestRegistry:
    def test_names_sorted(self):
        assert campaign_names() == sorted(CAMPAIGNS)

    def test_unknown_campaign(self):
        with pytest.raises(ParameterError, match="unknown campaign"):
            get_campaign("nope")

    def test_members_reference_real_scenarios_and_adapters(self):
        for name, campaign in CAMPAIGNS.items():
            for member in campaign.members:
                if member.scenario is not None:
                    assert member.scenario in SCENARIOS, (name, member.name)
                else:
                    assert member.algorithm in ALGORITHMS, (name, member.name)

    def test_member_validation(self):
        with pytest.raises(ParameterError, match="exactly one"):
            CampaignMember(name="x")
        with pytest.raises(ParameterError, match="exactly one"):
            CampaignMember(name="x", scenario="smoke", algorithm="en")
        with pytest.raises(ParameterError, match="no points"):
            CampaignMember(name="x", algorithm="en")
        with pytest.raises(ParameterError, match="grid points"):
            CampaignMember(
                name="x", scenario="smoke", points=grid_points(("g:1",))
            )

    def test_campaign_validation(self):
        member = CampaignMember(name="a", scenario="smoke")
        with pytest.raises(ParameterError, match="no members"):
            Campaign(description="d", members=())
        with pytest.raises(ParameterError, match="duplicate"):
            Campaign(description="d", members=(member, member))

    def test_scenario_member_inherits_registry_definition(self):
        member = CampaignMember(name="runtime", scenario="smoke")
        spec = member.spec(root_seed=7)
        scenario = SCENARIOS["smoke"]
        assert spec.points == scenario.points
        assert spec.algorithm == scenario.algorithm
        assert spec.trials == scenario.trials
        assert spec.root_seed == 7

    def test_trials_override_precedence(self):
        member = CampaignMember(name="runtime", scenario="smoke", trials=5)
        assert member.spec(root_seed=1).trials == 5
        assert member.spec(root_seed=1, trials=9).trials == 9


class TestPlanning:
    def test_plan_expands_all_members(self):
        plan = plan_campaign("campaign-smoke")
        assert [p.member.name for p in plan.members] == ["runtime", "race"]
        assert plan.num_trials == 8

    def test_config_hash_is_stable_and_sensitive(self):
        a = plan_campaign("campaign-smoke")
        b = plan_campaign("campaign-smoke")
        assert a.config_hash == b.config_hash
        assert plan_campaign("campaign-smoke", trials=2).config_hash != a.config_hash

    def test_bad_shard_and_trials(self):
        with pytest.raises(ParameterError, match="shard"):
            plan_campaign("campaign-smoke", shard=(2, 2))
        with pytest.raises(ParameterError, match="shard"):
            plan_campaign("campaign-smoke", shard=(0, 0))
        with pytest.raises(ParameterError, match="trials"):
            plan_campaign("campaign-smoke", trials=0)

    def test_shards_partition_trials(self):
        full = plan_campaign("campaign-smoke")
        all_keys = {
            t.key() for member in full.members for t in member.trials
        }
        shard_keys: list[set] = []
        for index in range(3):
            shard = plan_campaign("campaign-smoke", shard=(index, 3))
            keys = {t.key() for member in shard.members for t in member.trials}
            shard_keys.append(keys)
        union = set().union(*shard_keys)
        assert union == all_keys
        assert sum(len(k) for k in shard_keys) == len(all_keys)  # disjoint

    def test_shard_assignment_is_stable(self):
        first = plan_campaign("campaign-smoke", shard=(1, 3))
        second = plan_campaign("campaign-smoke", shard=(1, 3))
        assert [t.key() for m in first.members for t in m.trials] == [
            t.key() for m in second.members for t in m.trials
        ]


class TestRowsAndEquivalence:
    def _outcome(self, tmp_path, name="campaign-smoke", **kwargs):
        plan = plan_campaign(name, **kwargs)
        cache = ResultCache(tmp_path / "cache")
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        return run_campaign(plan, cache=cache, journal=journal)

    def test_rows_are_keyed_and_point_aligned(self, tmp_path):
        outcome = self._outcome(tmp_path)
        rows = campaign_rows(outcome)
        assert len(rows) == 7  # 1 runtime point + 6 race points
        keys = [row["key"] for row in rows]
        assert len(set(keys)) == len(keys)
        race = [row for row in rows if row["member"] == "race"]
        assert all(row["graph"] == "gnp_fast:64:0.08" for row in race)
        assert {(row["params"]["algo"], row["params"]["backend"]) for row in race} == {
            (algo, backend)
            for algo in ("en", "ls", "mpx")
            for backend in ("sync", "batch")
        }
        for row in race:
            assert "rounds" in row["metrics"]
            assert "messages" in row["metrics"]
            # identity never leaks into the metrics block
            assert "algo" not in row["metrics"]
            assert "graph" not in row["metrics"]

    def test_campaign_matches_direct_runner(self, tmp_path):
        """The campaign layer adds bookkeeping, not semantics: a member's
        assembled records equal a plain run_experiment of its spec."""
        outcome = self._outcome(tmp_path)
        for member_plan, result in outcome.members:
            direct = run_experiment(member_plan.spec)
            assert result.records == direct.records

    def test_sharded_rows_are_subset_of_full_rows(self, tmp_path):
        full = self._outcome(tmp_path / "full")
        by_key = {}
        for index in range(2):
            shard = self._outcome(
                tmp_path / f"shard{index}", shard=(index, 2)
            )
            for row in campaign_rows(shard):
                by_key.setdefault(row["key"], []).append(row)
        full_rows = {row["key"]: row for row in campaign_rows(full)}
        # Row keys are shard-independent, and the shards' trial counts
        # add back up to the full run's per-point counts.
        assert set(by_key) <= set(full_rows)
        for key, rows in by_key.items():
            assert sum(row["trials"] for row in rows) == full_rows[key]["trials"]


class TestFailureCapture:
    def test_failed_trials_are_journaled_and_reported(self, tmp_path):
        campaign = Campaign(
            description="failing",
            members=(
                CampaignMember(
                    name="bad",
                    algorithm="shootout",
                    # beta <= 0 raises ParameterError inside the adapter
                    points=grid_points(("gnp_fast:16:0.2",), algo="mpx", beta=-1.0),
                    trials=1,
                ),
            ),
        )
        plan = plan_campaign("failing", campaign=campaign)
        cache = ResultCache(tmp_path / "cache")
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        outcome = run_campaign(plan, cache=cache, journal=journal)
        assert len(outcome.failures) == 1
        assert "beta" in (outcome.failures[0].error or "")
        _, entries = journal.read()
        [entry] = entries.values()
        assert not entry.ok
        # Resume does not re-run journaled failures.
        again = run_campaign(plan, cache=cache, journal=journal, resume=True)
        assert again.executed == 0
        assert len(again.failures) == 1

    def test_parallel_equals_serial(self, tmp_path):
        serial = plan_campaign("campaign-smoke")
        cache_a = ResultCache(tmp_path / "a" / "cache")
        journal_a = CampaignJournal(tmp_path / "a" / "journal.jsonl")
        one = run_campaign(serial, cache=cache_a, journal=journal_a, workers=1)
        cache_b = ResultCache(tmp_path / "b" / "cache")
        journal_b = CampaignJournal(tmp_path / "b" / "journal.jsonl")
        two = run_campaign(serial, cache=cache_b, journal=journal_b, workers=2)
        assert campaign_rows(one) == campaign_rows(two)


class TestInterruption:
    def test_interrupted_parallel_run_leaves_no_worker(self, tmp_path):
        plan = plan_campaign("campaign-smoke")
        outcome = run_campaign(
            plan,
            cache=ResultCache(tmp_path / "cache"),
            journal=CampaignJournal(tmp_path / "journal.jsonl"),
            workers=2,
            stop_after=1,
        )
        assert outcome.interrupted and outcome.executed == 1
        assert multiprocessing.active_children() == []
