"""The layer boundaries a traced pass wraps, and the metrics read off them.

Each target is a public function of one layer, patched under the name its
caller looks it up by.  Counts come from what the calls return, recorded
after the span closes.
"""

from __future__ import annotations

from repro.baselines import distributed_ls, distributed_mpx
from repro.core import distributed_en, driver, elkin_neiman
from repro.core.decomposition import NetworkDecomposition
from repro.engine import en, ls, mpx
from repro.graphs import builders
from repro.oracle import build, hierarchy

GENERATE = "graphs.parse_graph_spec"
SAMPLE = "core.shifts.sample_phase_radii"
CARVE = "core.carving.carve_block"
EN_CENTRAL = "core.elkin_neiman.decompose"
ASSEMBLE = "core.decomposition.from_blocks"
DRIVERS = {
    "core.distributed_en": "core.distributed_en.decompose_distributed",
    "baselines.distributed_ls": "baselines.distributed_ls.decompose_distributed",
    "baselines.distributed_mpx": "baselines.distributed_mpx.partition_distributed",
}
ENGINE = {
    "engine.en.phase_s": "engine.en.BatchENPhases.run_phase",
    "engine.ls.phase_s": "engine.ls.BatchLSPhases.run_phase",
    "engine.mpx.run_s": "engine.mpx.run_mpx_batch",
}
PROTOCOL_OF_DRIVER = {
    "core.distributed_en": "engine.en",
    "baselines.distributed_ls": "engine.ls",
    "baselines.distributed_mpx": "engine.mpx",
}
BASE_LEVEL = "oracle.hierarchy.base_level"
COARSEN_LEVEL = "oracle.hierarchy.coarsen_level"
QUOTIENT = "oracle.hierarchy.quotient_graph"
COMPACT = "oracle.build.compact_scale"
#: ``(metric, span, op slot)``: the share of an op's traced time spent in a
#: layer, where ``op1``..``op4`` are the workload's end-to-end op slots.  A
#: faster layer can save at most this share of its op.
SHARES = (
    ("core.shifts.op1_share", SAMPLE, 1),
    ("core.carving.op1_share", CARVE, 1),
    ("engine.en.op2_share", ENGINE["engine.en.phase_s"], 2),
    ("engine.ls.op3_share", ENGINE["engine.ls.phase_s"], 3),
    ("engine.mpx.op4_share", ENGINE["engine.mpx.run_s"], 4),
    ("oracle.build.op1_share", COMPACT, 1),
)


def _draws(attrs, args, radii):
    attrs["draws"] = len(radii)


def _theorem1(attrs, args, result):
    decomposition, trace = result
    attrs["colors"] = decomposition.num_colors
    attrs["clusters"] = decomposition.num_clusters
    attrs["truncations"] = len(trace.truncation_events)


def _network_stats(attrs, args, result):
    stats = result.stats
    attrs["rounds"] = stats.rounds
    attrs["messages"] = stats.messages_sent
    attrs["words"] = stats.words_sent
    attrs["peak_edge_words"] = stats.max_words_per_edge_round


def targets():
    """``(owner, attribute, span name, on_result)`` for :func:`spans.patched`."""
    return [
        (builders, "parse_graph_spec", GENERATE, None),
        (driver, "sample_phase_radii", SAMPLE, _draws),
        (distributed_en, "sample_phase_radii", SAMPLE, _draws),
        (driver, "carve_block", CARVE, None),
        (elkin_neiman, "decompose", EN_CENTRAL, _theorem1),
        (NetworkDecomposition, "from_blocks", ASSEMBLE, None),
        (distributed_en, "decompose_distributed", DRIVERS["core.distributed_en"], _network_stats),
        (distributed_ls, "decompose_distributed", DRIVERS["baselines.distributed_ls"], _network_stats),
        (distributed_mpx, "partition_distributed", DRIVERS["baselines.distributed_mpx"], _network_stats),
        (en.BatchENPhases, "run_phase", ENGINE["engine.en.phase_s"], None),
        (ls.BatchLSPhases, "run_phase", ENGINE["engine.ls.phase_s"], None),
        (mpx, "run_mpx_batch", ENGINE["engine.mpx.run_s"], None),
        (build, "base_level", BASE_LEVEL, None),
        (build, "coarsen_level", COARSEN_LEVEL, None),
        (hierarchy, "quotient_graph", QUOTIENT, None),
        (build, "compact_scale", COMPACT, None),
    ]


def metrics(recorder, per: int, ops=()) -> dict:
    """Per-layer metrics of a traced pass, each averaged over ``per``
    repetitions of the workload's operations (graphs or builds); ``ops``
    names the operations in the end-to-end op slots."""
    out = {}
    for metric, span, slot in SHARES:
        if slot <= len(ops) and recorder.count(f"op.{ops[slot - 1]}"):
            op = f"op.{ops[slot - 1]}"
            out[metric] = recorder.seconds_within(span, op) / recorder.seconds(op)
    if recorder.count(GENERATE):
        out["graphs.generate_s"] = recorder.seconds(GENERATE) / recorder.count(GENERATE)
    sample_s = recorder.seconds(SAMPLE)
    draws = recorder.attr_sum(SAMPLE, "draws")
    out["core.shifts.sample_s"] = sample_s / per
    out["core.shifts.draws"] = draws / per
    out["core.shifts.ns_per_draw"] = sample_s / draws * 1e9 if draws else 0.0
    out["core.carving.carve_s"] = recorder.seconds(CARVE) / per
    out["core.carving.calls"] = recorder.count(CARVE) / per
    out["core.carving.truncation_events"] = recorder.attr_sum(EN_CENTRAL, "truncations") / per
    decompositions = recorder.count(EN_CENTRAL)
    out["core.decomposition.assemble_s"] = recorder.seconds(ASSEMBLE) / per
    for key in ("colors", "clusters"):
        total = recorder.attr_sum(EN_CENTRAL, key)
        out[f"core.decomposition.{key}"] = total / decompositions if decompositions else 0.0
    for layer, span in DRIVERS.items():
        out[f"{layer}.self_s"] = recorder.self_seconds(span) / per
        calls = recorder.count(span)
        protocol = PROTOCOL_OF_DRIVER[layer]
        for key in ("rounds", "messages", "words", "peak_edge_words"):
            total = recorder.attr_sum(span, key)
            out[f"{protocol}.{key}"] = total / calls if calls else 0.0
    for metric, span in ENGINE.items():
        out[metric] = recorder.seconds(span) / per
    messages = recorder.attr_sum(DRIVERS["core.distributed_en"], "messages")
    en_phase_s = recorder.seconds(ENGINE["engine.en.phase_s"])
    out["engine.en.ns_per_message"] = en_phase_s / messages * 1e9 if messages else 0.0
    out["oracle.hierarchy.base_level_s"] = recorder.seconds(BASE_LEVEL) / per
    out["oracle.hierarchy.coarsen_level_s"] = recorder.seconds(COARSEN_LEVEL) / per
    out["oracle.hierarchy.quotient_s"] = recorder.seconds(QUOTIENT) / per
    out["oracle.hierarchy.levels"] = (
        recorder.count(BASE_LEVEL) + recorder.count(COARSEN_LEVEL)
    ) / per
    out["oracle.build.compact_s"] = recorder.seconds(COMPACT) / per
    out["oracle.build.scales_attempted"] = recorder.count(COMPACT) / per
    return out
