"""A-HTPGM: approximate mining using mutual information (paper Section V, Alg. 2).

The approximate miner prunes the search space *before* pattern mining starts:

1. compute the pairwise NMI over the symbolic database ``DSYB``;
2. build the correlation graph ``GC`` for the threshold ``µ`` (given directly
   or derived from a desired graph density);
3. keep only series with at least one incident edge (the set ``XC``);
4. run HTPGM restricted to events of ``XC`` (level 1) and to event pairs whose
   series are connected in ``GC`` (level 2); levels ``k >= 3`` proceed exactly
   as in the exact algorithm.

Theorem 1 guarantees that frequent event pairs from correlated series have
confidence at least ``LB`` (Eq. 11), which is why dropping uncorrelated series
loses only patterns that are unlikely to be interesting; Table IX and Fig. 8 of
the paper (and the corresponding benchmarks here) quantify that loss.

Steps 1–3 run in the calling process (one joint symbol count per series
pair, see :func:`~repro.core.mutual_information.nmi_matrix`).  Step 4 runs
on the execution backend selected by :attr:`MiningConfig.engine`: one
backend is resolved per :meth:`AHTPGM.mine` call, handed to the exact miner
for candidate evaluation and closed when mining ends.  The correlation
phase's wall-clock is recorded in
:attr:`MiningStatistics.correlation_seconds`.
"""

from __future__ import annotations

import time

from ..exceptions import ConfigurationError
from ..timeseries.sequences import SequenceDatabase
from ..timeseries.symbolic import SymbolicDatabase
from .config import MiningConfig
from .correlation import (
    CorrelationGraph,
    build_correlation_graph,
    mi_threshold_for_density,
    pairwise_nmi,
)
from .engine import backend_from_config
from .event_pruning import EventCorrelationIndex, build_event_correlation_index
from .events import EventKey
from .htpgm import HTPGM
from .result import MiningResult

__all__ = ["AHTPGM"]


class AHTPGM:
    """Approximate frequent temporal pattern miner (A-HTPGM).

    Exactly one of ``mi_threshold`` (the NMI threshold ``µ``) and
    ``graph_density`` (the fraction of correlation-graph edges to keep, from
    which ``µ`` is derived per Def. 5.6) must be provided.

    ``event_mi_threshold`` optionally enables the event-level pruning extension
    (the paper's stated future work, see :mod:`repro.core.event_pruning`): on
    top of the series-level correlation graph, cross-series event pairs whose
    occurrence indicators have bidirectional NMI below this threshold are also
    excluded from level-2 candidate generation.

    After :meth:`mine` the correlation graph is available as
    :attr:`correlation_graph_`, the event-level index (when enabled) as
    :attr:`event_index_`, and the underlying exact miner (with its Hierarchical
    Pattern Graph) as :attr:`miner_`.
    """

    def __init__(
        self,
        config: MiningConfig | None = None,
        mi_threshold: float | None = None,
        graph_density: float | None = None,
        event_mi_threshold: float | None = None,
    ) -> None:
        if (mi_threshold is None) == (graph_density is None):
            raise ConfigurationError(
                "provide exactly one of mi_threshold and graph_density"
            )
        if mi_threshold is not None and not 0 < mi_threshold <= 1:
            raise ConfigurationError(
                f"mi_threshold must be in (0, 1], got {mi_threshold}"
            )
        if graph_density is not None and not 0 < graph_density <= 1:
            raise ConfigurationError(
                f"graph_density must be in (0, 1], got {graph_density}"
            )
        if event_mi_threshold is not None and not 0 < event_mi_threshold <= 1:
            raise ConfigurationError(
                f"event_mi_threshold must be in (0, 1], got {event_mi_threshold}"
            )
        self.config = config or MiningConfig()
        self.mi_threshold = mi_threshold
        self.graph_density = graph_density
        self.event_mi_threshold = event_mi_threshold
        self.correlation_graph_: CorrelationGraph | None = None
        self.event_index_: EventCorrelationIndex | None = None
        self.miner_: HTPGM | None = None

    # ------------------------------------------------------------------ public API
    def mine(
        self, database: SequenceDatabase, symbolic_db: SymbolicDatabase
    ) -> MiningResult:
        """Mine frequent temporal patterns from correlated series only.

        ``database`` is the temporal sequence database ``DSEQ`` and
        ``symbolic_db`` the symbolic database ``DSYB`` it was derived from; the
        NMI computation needs the latter.
        """
        started = time.perf_counter()
        backend = backend_from_config(self.config)
        try:
            correlation_started = time.perf_counter()
            graph = self._build_graph(symbolic_db)
            self.correlation_graph_ = graph

            event_index = None
            if self.event_mi_threshold is not None:
                event_index = build_event_correlation_index(
                    database, self.event_mi_threshold
                )
            self.event_index_ = event_index
            correlation_seconds = time.perf_counter() - correlation_started

            correlated = set(graph.correlated_series())

            def event_filter(event: EventKey) -> bool:
                return event[0] in correlated

            def pair_filter(event_a: EventKey, event_b: EventKey) -> bool:
                if not graph.has_edge(event_a[0], event_b[0]):
                    return False
                if event_index is not None:
                    return event_index.are_correlated(event_a, event_b)
                return True

            miner = HTPGM(
                config=self.config,
                event_filter=event_filter,
                pair_filter=pair_filter,
                backend=backend,
            )
            self.miner_ = miner
            result = miner.mine(database)
        finally:
            backend.close()
        result.algorithm = "A-HTPGM"
        result.correlated_series = sorted(correlated)
        result.statistics.correlation_seconds = correlation_seconds
        result.runtime_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------ internals
    def _build_graph(self, symbolic_db: SymbolicDatabase) -> CorrelationGraph:
        """Compute pairwise NMI once and build ``GC`` for the resolved ``µ``."""
        nmi_values = pairwise_nmi(symbolic_db)
        if self.mi_threshold is not None:
            threshold = self.mi_threshold
        else:
            threshold = mi_threshold_for_density(
                symbolic_db, self.graph_density, nmi_values=nmi_values
            )
        return build_correlation_graph(symbolic_db, threshold, nmi_values=nmi_values)
