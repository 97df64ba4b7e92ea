"""Declarative multi-scenario campaigns: shard, run, resume, aggregate.

A single scenario answers one question; the paper's *results* are
trade-off surfaces that need many scenarios side by side — EN vs the
Linial–Saks and MPX baselines, sync vs batch backends, several topology
families.  A :class:`Campaign` composes registered scenarios and inline
graph-spec/parameter grids into one named, content-addressed unit that
the CLI can run, shard, interrupt, resume and diff:

* :class:`CampaignMember` — either a reference to a registry scenario
  (``scenario="er-sweep"``) or an inline grid (``algorithm=`` +
  ``points=``, typically built with :func:`grid_points`);
* :func:`plan_campaign` — materialise members into
  :class:`~repro.experiments.spec.ExperimentSpec`\\ s, expand trials,
  apply the shard filter, and hash the whole configuration;
* :func:`run_campaign` — execute pending trials through the existing
  adapter/cache machinery while journaling completed trial hashes
  (:mod:`~repro.experiments.checkpoint`), then reassemble every
  member's :class:`~repro.experiments.runner.ExperimentResult` in spec
  order.  Output is assembled from the cache, never from execution
  order, so an interrupted-then-resumed campaign renders byte-identical
  stdout and JSON to an uninterrupted one;
* :func:`campaign_rows` / :func:`campaign_payload` /
  :func:`render_campaign` — keyed aggregate rows (the unit
  ``repro campaign compare`` diffs), the JSON artifact, and the stdout
  tables.

Sharding partitions trials by content hash (`trial.key() mod N`), so
shards are deterministic, disjoint, independent of member boundaries,
and stable under campaign renames — N CI legs can each run one shard
against a shared cache.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ParameterError
from .cache import ResultCache
from .checkpoint import CampaignJournal, JournalEntry, require_compatible_header
from ..telemetry import maybe_span, resolve, usage_block
from .env import environment_block
from .registry import DEFAULT_ROOT_SEED, get_scenario
from .runner import ExperimentResult, TrialResult, execute_trials
from .spec import ExperimentPoint, ExperimentSpec, TrialSpec, freeze_params, spec_hash

__all__ = [
    "CAMPAIGNS",
    "Campaign",
    "CampaignMember",
    "CampaignOutcome",
    "CampaignPlan",
    "MemberPlan",
    "ROWS_VERSION",
    "campaign_names",
    "campaign_payload",
    "campaign_rows",
    "get_campaign",
    "grid_points",
    "plan_campaign",
    "render_campaign",
    "run_campaign",
]

#: Version tag hashed into every aggregate-row key; bump when row
#: identity semantics change (baselines must then be regenerated).
ROWS_VERSION = "en16.campaign-rows.v1"


def grid_points(
    graphs: Sequence[str], **params: object
) -> Tuple[ExperimentPoint, ...]:
    """Cartesian product of graph specs × parameter value lists.

    Scalar parameter values are treated as single-element lists, so
    ``grid_points(("torus:24:24",), algo=("en", "ls"), k=5)`` yields two
    points.  Order is deterministic: graphs outermost, then each
    parameter in keyword order.
    """
    if not graphs:
        raise ParameterError("grid_points needs at least one graph spec")
    combos: List[Dict[str, object]] = [{}]
    for name, values in params.items():
        value_list = (
            list(values) if isinstance(values, (list, tuple)) else [values]
        )
        if not value_list:
            raise ParameterError(f"parameter {name!r} has no values")
        combos = [
            {**combo, name: value} for combo in combos for value in value_list
        ]
    return tuple(
        ExperimentPoint(graph=graph, params=freeze_params(combo))
        for graph in graphs
        for combo in combos
    )


@dataclass(frozen=True)
class CampaignMember:
    """One building block of a campaign: a scenario reference or a grid.

    Exactly one of ``scenario`` (a registry name — its points, algorithm
    and default trial count are inherited) or ``algorithm`` (an inline
    grid over ``points``) must be given.  ``trials`` overrides the
    scenario default / sets the grid's repetition count.
    """

    name: str
    scenario: Optional[str] = None
    algorithm: Optional[str] = None
    points: Tuple[ExperimentPoint, ...] = ()
    trials: Optional[int] = None
    vary_graph_seed: bool = True

    def __post_init__(self) -> None:
        if (self.scenario is None) == (self.algorithm is None):
            raise ParameterError(
                f"member {self.name!r} must set exactly one of scenario/algorithm"
            )
        if self.algorithm is not None and not self.points:
            raise ParameterError(f"grid member {self.name!r} has no points")
        if self.scenario is not None and self.points:
            raise ParameterError(
                f"scenario member {self.name!r} cannot also carry grid points"
            )

    def spec(self, root_seed: int, trials: Optional[int] = None) -> ExperimentSpec:
        """Materialise this member as a concrete experiment.

        ``trials`` (the campaign-level override) wins over the member's
        own ``trials``, which wins over the scenario default.
        """
        effective = trials if trials is not None else self.trials
        if self.scenario is not None:
            return get_scenario(self.scenario).spec(
                self.name, trials=effective, root_seed=root_seed
            )
        return ExperimentSpec(
            name=self.name,
            algorithm=self.algorithm or "",
            points=self.points,
            trials=effective if effective is not None else 1,
            root_seed=root_seed,
            vary_graph_seed=self.vary_graph_seed,
        )


@dataclass(frozen=True)
class Campaign:
    """A named bundle of members sharing one root seed."""

    description: str
    members: Tuple[CampaignMember, ...]
    root_seed: int = DEFAULT_ROOT_SEED

    def __post_init__(self) -> None:
        if not self.members:
            raise ParameterError("campaign has no members")
        names = [member.name for member in self.members]
        if len(set(names)) != len(names):
            raise ParameterError(f"duplicate member names: {sorted(names)}")


# --------------------------------------------------------------------------
# Registry

_SHOOTOUT_SYNC_GRAPHS = ("torus:24:24", "gnp_fast:1024:0.006", "regular:1024:8")
_SHOOTOUT_BATCH_GRAPHS = _SHOOTOUT_SYNC_GRAPHS + (
    "torus:40:40",
    "gnp_fast:4096:0.0015",
    "regular:4096:6",
)


def _shootout_members() -> Tuple[CampaignMember, ...]:
    """EN vs LS vs MPX on both backends: sync legs at the small points
    (the reference simulator is the slow contestant), batch legs across
    the full torus/gnp_fast/expander families."""
    return tuple(
        CampaignMember(
            name=f"{algo}-{backend}",
            algorithm="shootout",
            points=grid_points(graphs, algo=algo, backend=backend, **extra),
            trials=2,
        )
        for algo, extra in (("en", {"k": 5}), ("ls", {"k": 5}), ("mpx", {"beta": 0.3}))
        for backend, graphs in (
            ("sync", _SHOOTOUT_SYNC_GRAPHS), ("batch", _SHOOTOUT_BATCH_GRAPHS)
        )
    )


CAMPAIGNS: Dict[str, Campaign] = {
    "shootout": Campaign(
        description="EN vs LS vs MPX protocol race (sync and batch backends) "
        "across torus / gnp_fast / random-regular expander families; the "
        "nightly CI perf gate compares its artifact against "
        "benchmarks/baselines/ci-shootout.json",
        members=_shootout_members(),
    ),
    "quality": Campaign(
        description="Decomposition-quality sweep composing the registered "
        "er-sweep, grid-vs-tree and strong-vs-weak scenarios into one "
        "artifact",
        members=(
            CampaignMember(name="er-sweep", scenario="er-sweep"),
            CampaignMember(name="grid-vs-tree", scenario="grid-vs-tree"),
            CampaignMember(name="strong-vs-weak", scenario="strong-vs-weak"),
        ),
    ),
    "robustness": Campaign(
        description="Adversarial-execution sweep on the async engine: "
        "every protocol under every delivery schedule (fault-free legs "
        "must match the sync reference bit-for-bit), plus an EN fault "
        "grid measuring drift under seeded drops and crash windows",
        members=(
            CampaignMember(
                name="schedules",
                algorithm="robustness",
                points=grid_points(
                    ("gnp_fast:96:0.05",),
                    algo=("en", "ls", "mpx"),
                    delivery=("fifo", "latest:3", "random:4", "starve:3:0.5"),
                    k=4,
                    beta=0.3,
                ),
                trials=2,
            ),
            CampaignMember(
                name="faults",
                algorithm="robustness",
                points=grid_points(
                    ("gnp_fast:96:0.05",),
                    algo="en",
                    k=4,
                    delivery="random:2",
                    faults=(
                        "drop:0.05",
                        "drop:0.15",
                        "crash:3@2-6",
                        "crash:3@2-6;crash:17@5-11;redeliver",
                        "drop:0.03;crash:5@3-9",
                    ),
                ),
                trials=2,
            ),
        ),
    ),
    "serving": Campaign(
        description="Oracle-serving sweep: the loopback scenario plus a "
        "knob grid over micro-batch size and answer-cache capacity — the "
        "deterministic counter/row-identity companion to the latency "
        "numbers in benchmarks/bench_serving.py",
        members=(
            CampaignMember(name="loopback", scenario="serving"),
            CampaignMember(
                name="knobs",
                algorithm="serving",
                points=grid_points(
                    ("gnp_fast:512:0.012",),
                    queries=256,
                    max_batch=(1, 16, 64),
                    cache=(0, 512),
                ),
                trials=1,
            ),
        ),
    ),
    "campaign-smoke": Campaign(
        description="Tiny end-to-end campaign (scenario member + shootout "
        "grid member) for CI and the checkpoint/resume tests",
        members=(
            CampaignMember(name="runtime", scenario="smoke"),
            CampaignMember(
                name="race",
                algorithm="shootout",
                points=grid_points(
                    ("gnp_fast:64:0.08",),
                    algo=("en", "ls", "mpx"),
                    backend=("sync", "batch"),
                    k=3,
                ),
                trials=1,
            ),
        ),
    ),
}


def campaign_names() -> List[str]:
    """Registered campaign names, sorted."""
    return sorted(CAMPAIGNS)


def get_campaign(name: str) -> Campaign:
    """Look up ``name`` or raise :class:`ParameterError` with suggestions."""
    try:
        return CAMPAIGNS[name]
    except KeyError:
        raise ParameterError(
            f"unknown campaign {name!r} (try one of: {', '.join(campaign_names())})"
        ) from None


# --------------------------------------------------------------------------
# Planning

@dataclass(frozen=True)
class MemberPlan:
    """A member materialised into a spec plus its shard-filtered trials."""

    member: CampaignMember
    spec: ExperimentSpec
    trials: Tuple[TrialSpec, ...]
    total_trials: int  # before shard filtering


@dataclass(frozen=True)
class CampaignPlan:
    """Everything a run/resume/status invocation needs, precomputed."""

    name: str
    campaign: Campaign
    members: Tuple[MemberPlan, ...]
    shard_index: int
    shard_count: int
    trials_override: Optional[int]
    config_hash: str

    @property
    def num_trials(self) -> int:
        """Trials in this shard."""
        return sum(len(plan.trials) for plan in self.members)

    def journal_header(self) -> dict:
        """The identity block a compatible journal must carry."""
        return {
            "campaign": self.name,
            "config_hash": self.config_hash,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
        }


def _in_shard(trial: TrialSpec, index: int, count: int) -> bool:
    return count <= 1 or int(trial.key(), 16) % count == index


def plan_campaign(
    name: str,
    campaign: Optional[Campaign] = None,
    trials: Optional[int] = None,
    shard: Tuple[int, int] = (0, 1),
) -> CampaignPlan:
    """Materialise campaign ``name`` into a :class:`CampaignPlan`.

    ``campaign`` may be supplied directly (tests, ad-hoc campaigns);
    otherwise ``name`` is resolved through :data:`CAMPAIGNS`.
    """
    shard_index, shard_count = shard
    if shard_count < 1 or not 0 <= shard_index < shard_count:
        raise ParameterError(
            f"shard must be index/count with 0 <= index < count, "
            f"got {shard_index}/{shard_count}"
        )
    if trials is not None and trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if campaign is None:
        campaign = get_campaign(name)
    members = []
    config_members = []
    for member in campaign.members:
        spec = member.spec(campaign.root_seed, trials)
        expanded = spec.trial_specs()
        kept = tuple(
            t for t in expanded if _in_shard(t, shard_index, shard_count)
        )
        members.append(
            MemberPlan(
                member=member, spec=spec, trials=kept, total_trials=len(expanded)
            )
        )
        config_members.append(
            {
                "member": member.name,
                "algorithm": spec.algorithm,
                "points": [
                    [point.graph, [list(item) for item in point.params]]
                    for point in spec.points
                ],
                "trials": spec.trials,
                "root_seed": spec.root_seed,
                "vary_graph_seed": spec.vary_graph_seed,
            }
        )
    config = {
        "campaign": name,
        "members": config_members,
        "shard_index": shard_index,
        "shard_count": shard_count,
    }
    return CampaignPlan(
        name=name,
        campaign=campaign,
        members=tuple(members),
        shard_index=shard_index,
        shard_count=shard_count,
        trials_override=trials,
        config_hash=spec_hash(config, version=ROWS_VERSION),
    )


# --------------------------------------------------------------------------
# Execution

@dataclass
class CampaignOutcome:
    """What one run/resume invocation did, plus the assembled results."""

    plan: CampaignPlan
    interrupted: bool
    executed: int  # trials freshly executed by this invocation
    cache_hits: int  # trials resolved from the cache by this invocation
    members: List[Tuple[MemberPlan, ExperimentResult]] = field(default_factory=list)

    @property
    def failures(self) -> List[TrialResult]:
        """Failed trials across all members (empty while interrupted)."""
        return [f for _, result in self.members for f in result.failures]


def run_campaign(
    plan: CampaignPlan,
    cache: ResultCache,
    journal: CampaignJournal,
    workers: int = 1,
    stop_after: Optional[int] = None,
    resume: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> CampaignOutcome:
    """Execute ``plan``, journaling each completed trial hash.

    ``run`` (``resume=False``) refuses a journal that already holds
    completed trials; ``resume`` requires one and validates its header.
    ``stop_after`` cleanly interrupts the invocation after that many
    freshly executed trials (time-boxed CI legs, and the crash stand-in
    for the resume tests) — the outcome is flagged ``interrupted`` and
    carries no assembled results.

    Assembly reads every record back from the cache in spec order, so
    the rendered output is a pure function of the campaign definition —
    not of which invocation computed which trial.
    """
    if workers < 0:
        raise ParameterError(f"workers must be >= 0, got {workers}")
    if stop_after is not None and stop_after < 1:
        raise ParameterError(f"stop-after must be >= 1, got {stop_after}")
    emit = log if log is not None else (lambda message: None)

    header, entries = journal.read()
    if resume:
        if header is None:
            raise ParameterError(
                f"nothing to resume: no journal at {journal.path}"
            )
        require_compatible_header(header, plan.journal_header())
    else:
        if entries:
            raise ParameterError(
                f"journal at {journal.path} already records "
                f"{len(entries)} completed trial(s); continue it with "
                "`repro campaign resume` or discard it with --fresh"
            )
        journal.create(plan.journal_header())

    # Partition this shard's trials: journaled failures stay failed,
    # cache hits are adopted into the journal, the rest run.
    pending: List[Tuple[str, TrialSpec]] = []
    cache_hits = 0
    for member_plan in plan.members:
        member = member_plan.member.name
        for trial in member_plan.trials:
            key = trial.key()
            entry = entries.get(key)
            if entry is not None and entry.error is not None:
                continue
            if cache.get(trial) is not None:
                cache_hits += 1
                if entry is None:
                    adopted = JournalEntry(key=key, member=member)
                    journal.append(adopted)
                    entries[key] = adopted
                continue
            pending.append((member, trial))

    executed = 0
    interrupted = False
    tel = resolve(None)
    with maybe_span(
        tel, "campaign", name=plan.name, config=plan.config_hash
    ) as campaign_span:
        if pending:
            emit(
                f"{plan.name}: {len(pending)} trial(s) to execute "
                f"({cache_hits} cached, {len(entries)} journaled)"
            )
            todo = [trial for _, trial in pending]
            try:
                # closing(): an interrupted run stops the pool before
                # this function returns.
                with closing(execute_trials(todo, workers, cache)) as outcomes:
                    for position, result in outcomes:
                        member, trial = pending[position]
                        entry = JournalEntry(
                            key=trial.key(), member=member, error=result.error
                        )
                        journal.append(entry)
                        entries[entry.key] = entry
                        executed += 1
                        emit(
                            f"  [{executed}/{len(pending)}] "
                            f"{entry.member}: {trial.graph}"
                            + ("" if result.error is None else "  FAILED")
                        )
                        if (
                            stop_after is not None
                            and executed >= stop_after
                            and executed < len(pending)
                        ):
                            interrupted = True
                            break
            except KeyboardInterrupt:
                interrupted = True

        if campaign_span is not None:
            campaign_span.add("executed", executed)
            campaign_span.add("cache_hits", cache_hits)
            campaign_span.annotate(interrupted=interrupted)
    outcome = CampaignOutcome(
        plan=plan,
        interrupted=interrupted,
        executed=executed,
        cache_hits=cache_hits,
    )
    if interrupted:
        return outcome

    # Reassemble in spec order from the cache + journaled failures.
    for member_plan in plan.members:
        results: List[TrialResult] = []
        for trial in member_plan.trials:
            record = cache.get(trial)
            if record is not None:
                results.append(
                    TrialResult(trial=trial, record=record, from_cache=True)
                )
                continue
            entry = entries.get(trial.key())
            if entry is None or entry.error is None:
                raise RuntimeError(
                    f"campaign bookkeeping hole: trial {trial.key()} of "
                    f"{member_plan.member.name!r} has neither a cached "
                    "record nor a journaled failure"
                )
            results.append(TrialResult(trial=trial, record=None, error=entry.error))
        outcome.members.append(
            (
                member_plan,
                ExperimentResult(spec=member_plan.spec, results=results),
            )
        )
    return outcome


# --------------------------------------------------------------------------
# Rendering: keyed rows, JSON artifact, stdout tables

def campaign_rows(outcome: CampaignOutcome) -> List[dict]:
    """Flat keyed aggregate rows — the unit ``campaign compare`` diffs.

    One row per (member, experiment point): identity fields plus a
    ``metrics`` dict of the aggregated record columns.  The ``key`` is a
    content hash of the identity, so two artifacts of the same campaign
    definition align row-for-row however they were produced.
    """
    from .aggregate import aggregate_experiment

    rows: List[dict] = []
    for member_plan, result in outcome.members:
        spec = member_plan.spec
        for agg in aggregate_experiment(result):
            # Aggregate rows are ordered identity-first: graph, the
            # group's own params, then "trials" and the reduced metrics.
            items = list(agg.items())
            cut = list(agg).index("trials")
            params = freeze_params(items[1:cut])
            identity = {
                "member": member_plan.member.name,
                "algorithm": spec.algorithm,
                "graph": agg["graph"],
            }
            key = spec_hash(
                {**identity, "params": [list(item) for item in params],
                 "trials": spec.trials, "root_seed": spec.root_seed},
                version=ROWS_VERSION,
            )
            rows.append({
                "key": key, **identity, "params": dict(params),
                "trials": agg["trials"], "metrics": dict(items[cut + 1:]),
            })
    return rows


def campaign_payload(outcome: CampaignOutcome) -> dict:
    """The JSON artifact for one completed campaign invocation.

    With telemetry enabled the payload carries a ``telemetry`` block
    (span summary plus the trace-file path, when writing to one), so a
    campaign artifact links to its trace.  Untraced payloads are
    byte-identical to pre-telemetry ones — the key is simply absent.
    """
    plan = outcome.plan
    payload = {
        "kind": "campaign",
        "campaign": plan.name,
        "config_hash": plan.config_hash,
        "root_seed": plan.campaign.root_seed,
        "shard": {"index": plan.shard_index, "count": plan.shard_count},
        "trials_override": plan.trials_override,
        "members": [
            {
                "member": member_plan.member.name,
                "algorithm": member_plan.spec.algorithm,
                "scenario": member_plan.member.scenario,
                "points": len(member_plan.spec.points),
                "trials": member_plan.spec.trials,
                "shard_trials": len(member_plan.trials),
                "failures": len(result.failures),
            }
            for member_plan, result in outcome.members
        ],
        "rows": campaign_rows(outcome),
        "failures": len(outcome.failures),
        "environment": environment_block(),
    }
    tel = resolve(None)
    if tel is not None:
        payload["telemetry"] = tel.block()
        # Peak RSS / CPU ride along only on traced runs: untraced
        # artifacts stay byte-identical to pre-telemetry ones (the
        # resume-equivalence CI check `cmp`s them).
        payload["resources"] = usage_block()
    return payload


def render_campaign(outcome: CampaignOutcome) -> str:
    """Deterministic stdout for a completed campaign: tables + summary.

    Everything here is a pure function of the assembled results —
    wall-clock, cache hits and worker counts stay on stderr — so an
    interrupted-then-resumed run prints bytes identical to a one-shot
    run.
    """
    from ..analysis import format_records
    from .aggregate import aggregate_experiment

    plan = outcome.plan
    blocks: List[str] = []
    summary_rows: List[dict] = []
    for member_plan, result in outcome.members:
        spec = member_plan.spec
        if member_plan.trials:
            blocks.append(
                format_records(
                    aggregate_experiment(result),
                    title=f"{member_plan.member.name}: algorithm "
                    f"{spec.algorithm!r}, {spec.trials} trial(s) x "
                    f"{len(spec.points)} point(s)",
                )
            )
        summary_rows.append(
            {
                "member": member_plan.member.name,
                "algorithm": spec.algorithm,
                "points": len(spec.points),
                "trials": spec.trials,
                "shard_trials": len(member_plan.trials),
                "failed": len(result.failures),
            }
        )
    shard = (
        f", shard {plan.shard_index + 1}/{plan.shard_count}"
        if plan.shard_count > 1
        else ""
    )
    blocks.append(
        format_records(
            summary_rows,
            title=f"campaign {plan.name!r} (root seed "
            f"{plan.campaign.root_seed}{shard}, config {plan.config_hash[:12]})",
        )
    )
    return "\n\n".join(blocks)
