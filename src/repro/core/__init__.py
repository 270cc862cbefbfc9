"""Core of the reproduction: the paper's primary contribution.

This subpackage contains the temporal-relation model, the Hierarchical Pattern
Graph, the exact miner (E-HTPGM), the mutual-information machinery, the
approximate miner (A-HTPGM), and the execution layer
(:mod:`repro.core.engine`) whose backends evaluate level candidates either
in-process (``SerialBackend``) or sharded across worker processes
(``ProcessPoolBackend``) — always producing the identical pattern set.
"""

from .approximate import AHTPGM
from .config import MiningConfig, PruningMode, RetryPolicy
from .faults import FaultPlan, FaultSpec, install_plan
from .engine import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    backend_from_config,
)
from .correlation import (
    CorrelationGraph,
    build_correlation_graph,
    mi_threshold_for_density,
    pairwise_nmi,
)
from .event_pruning import (
    EventCorrelationIndex,
    binary_nmi,
    build_event_correlation_index,
)
from .events import EventKey, TemporalEvent, collect_events, format_event, parse_event
from .hpg import CombinationNode, EventNode, HierarchicalPatternGraph, PatternEntry
from .htpgm import HTPGM
from .session import MiningSession
from .mutual_information import (
    conditional_entropy,
    confidence_lower_bound,
    entropy,
    mutual_information,
    nmi_matrix,
    normalized_mutual_information,
)
from .patterns import PatternMeasures, TemporalPattern, pair_index, relation_pairs
from .relation_kernel import classify_pairs
from .relations import (
    RELATION_CODES,
    RELATIONS_BY_CODE,
    Relation,
    classify,
    contains,
    follows,
    overlaps,
)
from .result import MinedPattern, MiningResult
from .stats import MiningStatistics

__all__ = [
    "MiningConfig",
    "PruningMode",
    "RetryPolicy",
    "FaultPlan",
    "FaultSpec",
    "install_plan",
    "EventKey",
    "TemporalEvent",
    "collect_events",
    "format_event",
    "parse_event",
    "Relation",
    "RELATIONS_BY_CODE",
    "RELATION_CODES",
    "classify",
    "classify_pairs",
    "follows",
    "contains",
    "overlaps",
    "TemporalPattern",
    "PatternMeasures",
    "pair_index",
    "relation_pairs",
    "HierarchicalPatternGraph",
    "EventNode",
    "CombinationNode",
    "PatternEntry",
    "HTPGM",
    "AHTPGM",
    "MiningSession",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "backend_from_config",
    "entropy",
    "conditional_entropy",
    "mutual_information",
    "normalized_mutual_information",
    "nmi_matrix",
    "confidence_lower_bound",
    "CorrelationGraph",
    "pairwise_nmi",
    "build_correlation_graph",
    "mi_threshold_for_density",
    "EventCorrelationIndex",
    "binary_nmi",
    "build_event_correlation_index",
    "MinedPattern",
    "MiningResult",
    "MiningStatistics",
]
