"""E-HTPGM: exact Hierarchical Temporal Pattern Graph Mining (paper Section IV).

The miner works level by level over the Hierarchical Pattern Graph:

* **Level 1** — one database scan builds the instance lists of every
  event; events below the support threshold are discarded (Alg. 1, lines 1–4).
* **Level 2** — candidate event pairs come from the Cartesian product of the
  frequent events; the Apriori checks of Lemmas 2–3 (bitmap AND + confidence
  upper bound) discard hopeless pairs before any instance work, then the
  relations between instance pairs are classified and frequent 2-event patterns
  are stored in their pair node (Alg. 1, lines 5–14).
* **Level k ≥ 3** — candidate combinations are grown from the frequent
  ``(k-1)``-event nodes and the (transitivity-filtered, Lemma 5) single events;
  surviving combinations extend the stored ``(k-1)``-event patterns with
  instances of the new event, verifying each new relation against level 2
  (Lemmas 4, 6, 7) before accepting it (Alg. 1, lines 15–20).

Since the incremental-mining refactor, the level-wise machinery lives in
:class:`~repro.core.session.MiningSession`: candidate *generation* (cheap,
order-sensitive) happens in the session, candidate *evaluation* (expensive,
embarrassingly parallel) is delegated to an
:class:`~repro.core.engine.ExecutionBackend`, and all per-run state — level-1
instance lists, node trees, statistics — is explicit session state.  One
per-level method of the session serves a full mine, a resumed checkpoint and
an append; a full mine is a merge against an empty previous state.
:class:`HTPGM` is the stable one-shot façade: :meth:`HTPGM.mine` creates a
session, runs the levels and builds the result.  Every backend builds the same occurrence store,
so the session left in :attr:`HTPGM.session_` can be appended to or persisted
via :mod:`repro.io.session_io` like one created directly; with
``MiningConfig.checkpoint_path`` set it also checkpoints after level 1 and
after every level that produced nodes.

Both pruning families can be switched off through
:class:`~repro.core.config.PruningMode`, which only changes the amount of work,
never the mined pattern set — this is what the ablation of Figs. 6–7 measures.

The miner accepts two optional filters used by the approximate variant
(A-HTPGM): ``event_filter`` restricts which events enter level 1 and
``pair_filter`` restricts which event pairs are considered at level 2.  Both
filters run during candidate generation, i.e. in the coordinating process, so
they may be arbitrary (unpicklable) callables under any backend.
"""

from __future__ import annotations

from ..timeseries.sequences import SequenceDatabase
from .config import MiningConfig
from .engine import ExecutionBackend, backend_from_config
from .hpg import HierarchicalPatternGraph
from .result import MiningResult
from .session import EventFilter, MiningSession, PairFilter
from .stats import MiningStatistics

__all__ = ["HTPGM"]


class HTPGM:
    """Exact frequent temporal pattern miner (E-HTPGM).

    Parameters
    ----------
    config:
        Thresholds, relation buffers, pruning switches and engine selection.
    event_filter, pair_filter:
        Optional predicates used by A-HTPGM to exclude uncorrelated series;
        ``None`` (the default) keeps everything, which is the exact algorithm.
    backend:
        Execution backend evaluating level candidates.  ``None`` (the default)
        resolves one from ``config.engine`` for each :meth:`mine` call and
        closes it afterwards; an explicitly injected backend is reused across
        calls and stays owned (and closed) by the caller.

    After :meth:`mine` the constructed Hierarchical Pattern Graph is available
    as :attr:`graph_`, the work counters as :attr:`statistics_` and the
    underlying session as :attr:`session_`.
    """

    def __init__(
        self,
        config: MiningConfig | None = None,
        event_filter: EventFilter | None = None,
        pair_filter: PairFilter | None = None,
        backend: ExecutionBackend | None = None,
    ) -> None:
        self.config = config or MiningConfig()
        self.event_filter = event_filter
        self.pair_filter = pair_filter
        self.backend = backend
        self.session_: MiningSession | None = None
        self.graph_: HierarchicalPatternGraph | None = None
        self.statistics_: MiningStatistics | None = None

    # ------------------------------------------------------------------ public API
    def mine(self, database: SequenceDatabase) -> MiningResult:
        """Mine all frequent temporal patterns from a sequence database.

        Thin wrapper over :class:`MiningSession`: create a session, run the
        levels, build the result.  The session stays available as
        :attr:`session_`; call :meth:`MiningSession.append` on it as new
        sequences arrive.
        """
        session = MiningSession(
            config=self.config,
            event_filter=self.event_filter,
            pair_filter=self.pair_filter,
        )
        backend = self.backend
        owns_backend = backend is None
        if owns_backend:
            backend = backend_from_config(self.config)
        try:
            result = session.mine(database, backend=backend)
        finally:
            if owns_backend:
                backend.close()
        self.session_ = session
        self.graph_ = session.graph
        self.statistics_ = session.statistics
        return result
