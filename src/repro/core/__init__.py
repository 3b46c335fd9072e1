"""The hybrid tree — the paper's core contribution.

Public entry point: :class:`~repro.core.hybridtree.HybridTree`.  Supporting
modules implement the intranode kd representation (:mod:`~repro.core.kdnodes`),
node types (:mod:`~repro.core.nodes`), the EDA-optimal split algorithms
(:mod:`~repro.core.splits`), encoded live space (:mod:`~repro.core.els`),
bulk loading (:mod:`~repro.core.bulkload`) and structural statistics
(:mod:`~repro.core.stats`).
"""

from repro.core.els import ELSTable, quantize_live_rect
from repro.core.hybridtree import HybridTree
from repro.core.nodes import MAX_OID, OidRangeError
from repro.core.splits import (
    POLICY_EDA,
    POLICY_RR,
    POLICY_VAM,
    POSITION_MEDIAN,
    POSITION_MIDDLE,
    RoundRobin,
    bipartition_intervals,
    choose_data_split,
    choose_index_split,
    reset_round_robin,
)
from repro.core.stats import TreeStats, compute_stats

__all__ = [
    "ELSTable",
    "HybridTree",
    "MAX_OID",
    "OidRangeError",
    "POLICY_EDA",
    "POLICY_RR",
    "POLICY_VAM",
    "POSITION_MEDIAN",
    "POSITION_MIDDLE",
    "RoundRobin",
    "TreeStats",
    "bipartition_intervals",
    "choose_data_split",
    "choose_index_split",
    "compute_stats",
    "quantize_live_rect",
    "reset_round_robin",
]
