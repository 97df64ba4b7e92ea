"""Analysis utilities: quality reports, lemma estimators, theory tables.

* :mod:`~repro.analysis.quality` — exact measurements of a decomposition;
* :mod:`~repro.analysis.order_statistics` — Lemma 5 bound + Monte Carlo;
* :mod:`~repro.analysis.survival` — Claim 6/8 envelopes and empirics;
* :mod:`~repro.analysis.theory` — §1.2 closed-form comparison rows;
* :mod:`~repro.analysis.tables` — plain-text table rendering.
"""

from .gaps import GapStatistics, gap_profile, phase_gap_statistics
from .order_statistics import (
    GapEstimate,
    estimate_within_one_probability,
    join_probability_lower_bound,
    lemma5_bound,
)
from .quality import QualityReport, report
from .survival import (
    SurvivalSummary,
    aggregate_survival,
    claim6_envelope,
    claim8_envelope,
    mean_ragged_curves,
    survival_curve,
)
from .tables import format_records, format_table, format_value
from .theory import (
    TheoryRow,
    aglp_row,
    comparison_rows,
    elkin_neiman_row,
    ls_row,
    ps_row,
)

__all__ = [
    "GapEstimate",
    "GapStatistics",
    "QualityReport",
    "SurvivalSummary",
    "TheoryRow",
    "aggregate_survival",
    "gap_profile",
    "phase_gap_statistics",
    "aglp_row",
    "claim6_envelope",
    "claim8_envelope",
    "comparison_rows",
    "elkin_neiman_row",
    "estimate_within_one_probability",
    "format_records",
    "format_table",
    "format_value",
    "join_probability_lower_bound",
    "lemma5_bound",
    "ls_row",
    "mean_ragged_curves",
    "ps_row",
    "report",
    "survival_curve",
]
