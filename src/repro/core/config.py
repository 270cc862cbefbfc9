"""Mining configuration shared by the exact and approximate miners.

The paper's algorithms are parameterised by the support threshold ``σ``, the
confidence threshold ``δ``, the relation buffer ``ε``, the minimal overlapping
duration ``d_o``, the maximal pattern duration ``tmax`` and — for the ablation
study of Figs. 6–7 — by which pruning techniques are active.  All of these live
in one frozen :class:`MiningConfig` dataclass so a configuration can be passed
around, logged and compared safely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from ..exceptions import ConfigurationError

__all__ = ["PruningMode", "RetryPolicy", "MiningConfig"]


class PruningMode(str, Enum):
    """Which pruning techniques the exact miner applies.

    ``NONE``
        No candidate-level pruning; only the final support/confidence check.
        This is the ``(NoPrune)-E-HTPGM`` configuration of the paper.
    ``APRIORI``
        Apriori-based pruning on event combinations (Lemmas 2 and 3).
    ``TRANSITIVITY``
        Transitivity-based pruning (Lemmas 4–7): single-event filtering before
        the Cartesian product and iterative relation verification against L2.
    ``ALL``
        Both families (the default, and the configuration called
        ``(All)-E-HTPGM`` in the paper).

    All modes produce the same set of frequent patterns; they only differ in how
    much candidate work is avoided.
    """

    NONE = "none"
    APRIORI = "apriori"
    TRANSITIVITY = "transitivity"
    ALL = "all"

    @property
    def uses_apriori(self) -> bool:
        """True when Apriori-based candidate filtering is active."""
        return self in (PruningMode.APRIORI, PruningMode.ALL)

    @property
    def uses_transitivity(self) -> bool:
        """True when transitivity-based filtering is active."""
        return self in (PruningMode.TRANSITIVITY, PruningMode.ALL)


@dataclass(frozen=True)
class RetryPolicy:
    """Fault-tolerance knobs of the process engine's shard execution.

    Shards are pure functions of ``(context, candidates)``, so resubmitting a
    failed shard is idempotent: the retried evaluation produces byte-identical
    nodes and counters, and the merged pattern set cannot change.  The policy
    only decides *how often* and *how patiently* the coordinator retries.

    Parameters
    ----------
    max_retries:
        How many times one shard may be resubmitted after its first failed
        attempt (0 disables retrying).  A shard still failing after
        ``max_retries`` resubmissions propagates its last error.
    backoff_seconds:
        Delay before the first retry round; each further round multiplies it
        by ``backoff_multiplier``.
    backoff_multiplier:
        Exponential growth factor of the backoff delay.
    shard_timeout:
        Wall-clock budget in seconds for one shard attempt; a shard still
        running past it is killed (the worker pool is torn down and rebuilt)
        and the shard is retried.  ``None`` (the default) never times out.

    The backoff is *deterministic*, a function of the retry round alone, so
    a retried run is reproducible down to its sleep pattern.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    shard_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_seconds < 0:
            raise ConfigurationError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.backoff_multiplier < 1:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ConfigurationError(
                f"shard_timeout must be positive or None, got {self.shard_timeout}"
            )

    def delay(self, round_index: int) -> float:
        """Backoff before retry round ``round_index`` (0-based):
        ``backoff_seconds * backoff_multiplier ** round_index``."""
        return self.backoff_seconds * self.backoff_multiplier**round_index


#: Execution details a resumed/appended session adopts from the driving
#: pipeline instead of inheriting from the session file: which backend runs
#: the candidates, and how it retries/checkpoints.  None of these can change
#: the mined pattern set.
_EXECUTION_FIELDS = (
    "engine",
    "n_workers",
    "retry",
    "checkpoint_path",
    "memory_budget_bytes",
)


@dataclass(frozen=True)
class MiningConfig:
    """Parameters of the HTPGM mining process.

    Parameters
    ----------
    min_support:
        Relative support threshold ``σ`` in ``(0, 1]`` (fraction of sequences).
    min_confidence:
        Confidence threshold ``δ`` in ``(0, 1]``.
    epsilon:
        Buffer ``ε >= 0`` added to relation endpoints (Defs. 3.6–3.8) to absorb
        small misalignments between series.
    min_overlap:
        Minimal overlapping duration ``d_o > 0`` for the Overlap relation.
    tmax:
        Maximal duration of a pattern (constraint in Section III-C); ``None``
        disables the constraint.
    max_pattern_size:
        Largest number of events per pattern; ``None`` mines until no level
        produces new frequent patterns.
    allow_self_relations:
        When True (the paper's behaviour), an event may form a 2-event pattern
        with itself through two distinct instances.
    pruning:
        Which pruning techniques to apply (see :class:`PruningMode`).
    engine:
        Execution backend evaluating level candidates: ``"serial"`` (the
        default, in-process) or ``"process"`` (a multiprocessing pool that
        shards candidate evaluation across workers, balancing shards by
        per-candidate cost estimates).  A-HTPGM's pairwise-NMI
        correlation phase always runs in the calling process.  Every engine
        mines the identical pattern set; see :mod:`repro.core.engine`.
    n_workers:
        Worker count for the ``"process"`` engine; ``None`` uses all available
        CPUs.  Ignored by the serial engine.
    memory_budget_bytes:
        Total memory budget in bytes for the ``"process"`` engine's worker
        fleet, divided into equal per-worker shares (see
        :mod:`repro.core.resources`).  The coordinator sizes shards so no
        shard's estimated working set exceeds a share, and each worker runs
        a resident-set watchdog that aborts an over-budget shard with a
        clean :class:`~repro.exceptions.MemoryBudgetExceeded` before the
        kernel OOM killer would have fired; the engine then recovers by
        splitting the shard in half (recursively) and degrading — smaller
        pass chunks, finally in-process evaluation — every step
        output-preserving and recorded in :attr:`MiningStatistics.warnings`.
        ``None`` (the default) disables governance; the serial engine
        ignores the budget.
    retry:
        Fault-tolerance policy of the ``"process"`` engine (see
        :class:`RetryPolicy`): how often a crashed, hung or failed shard is
        resubmitted and with what backoff/timeout.  Pure execution detail —
        retried shards are idempotent, so the mined pattern set is identical
        whether or not anything was retried.  Ignored by the serial engine.
    checkpoint_path:
        When set, a :class:`~repro.core.session.MiningSession` (also the one
        :class:`~repro.core.htpgm.HTPGM` runs) atomically snapshots its state
        to this file after every completed mining level, so an interrupted
        run can be resumed at the last finished level
        (:meth:`~repro.core.session.MiningSession.resume`) with identical
        final results.  An interrupted checkpoint must be resumed before it
        can be appended to.  ``None`` (the default) disables checkpointing.
        Sessions carrying A-HTPGM's event/pair filters cannot checkpoint.
    """

    min_support: float = 0.5
    min_confidence: float = 0.5
    epsilon: float = 0.0
    min_overlap: float = 1e-9
    tmax: float | None = None
    max_pattern_size: int | None = None
    allow_self_relations: bool = True
    pruning: PruningMode = PruningMode.ALL
    engine: str = "serial"
    n_workers: int | None = None
    memory_budget_bytes: int | None = None
    retry: RetryPolicy = RetryPolicy()
    checkpoint_path: str | None = None

    def __post_init__(self) -> None:
        if not 0 < self.min_support <= 1:
            raise ConfigurationError(
                f"min_support must be in (0, 1], got {self.min_support}"
            )
        if not 0 < self.min_confidence <= 1:
            raise ConfigurationError(
                f"min_confidence must be in (0, 1], got {self.min_confidence}"
            )
        if self.epsilon < 0:
            raise ConfigurationError(f"epsilon must be non-negative, got {self.epsilon}")
        if self.min_overlap <= 0:
            raise ConfigurationError(
                f"min_overlap must be positive, got {self.min_overlap}"
            )
        if self.epsilon > self.min_overlap:
            raise ConfigurationError(
                "epsilon must not exceed min_overlap "
                f"(got epsilon={self.epsilon}, min_overlap={self.min_overlap}); "
                "the paper requires 0 <= epsilon << d_o"
            )
        if self.tmax is not None and self.tmax <= 0:
            raise ConfigurationError(f"tmax must be positive or None, got {self.tmax}")
        if self.max_pattern_size is not None and self.max_pattern_size < 1:
            raise ConfigurationError(
                f"max_pattern_size must be >= 1 or None, got {self.max_pattern_size}"
            )
        if not isinstance(self.pruning, PruningMode):
            object.__setattr__(self, "pruning", PruningMode(self.pruning))
        if self.engine not in ("serial", "process"):
            raise ConfigurationError(
                f"engine must be 'serial' or 'process', got {self.engine!r}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1 or None, got {self.n_workers}"
            )
        if self.memory_budget_bytes is not None and self.memory_budget_bytes < 1:
            raise ConfigurationError(
                "memory_budget_bytes must be >= 1 or None, "
                f"got {self.memory_budget_bytes}"
            )
        if not isinstance(self.retry, RetryPolicy):
            raise ConfigurationError(
                f"retry must be a RetryPolicy, got {type(self.retry).__name__}"
            )
        if self.checkpoint_path is not None and not str(self.checkpoint_path):
            raise ConfigurationError("checkpoint_path must be a non-empty path or None")

    # ------------------------------------------------------------------ helpers
    def support_count(self, n_sequences: int) -> int:
        """Absolute support threshold for a database of ``n_sequences`` rows.

        Matches the paper's ``supp(P) >= σ`` with relative σ: a pattern is
        frequent when it occurs in at least ``ceil(σ · |DSEQ|)`` sequences (and
        always at least one).
        """
        if n_sequences <= 0:
            raise ConfigurationError("support_count needs a positive database size")
        return max(1, math.ceil(self.min_support * n_sequences))

    def with_pruning(self, pruning: PruningMode | str) -> "MiningConfig":
        """Copy of this configuration with a different pruning mode."""
        return replace(self, pruning=PruningMode(pruning))

    def with_engine(
        self, engine: str, n_workers: int | None = None
    ) -> "MiningConfig":
        """Copy of this configuration with a different execution backend.

        ``n_workers`` is an execution detail of the target backend, so it is
        overwritten (not inherited) — a serially mined session can be re-run
        with ``engine="process"`` and vice versa.
        """
        return replace(self, engine=engine, n_workers=n_workers)

    def with_retry(self, retry: RetryPolicy) -> "MiningConfig":
        """Copy of this configuration with a different fault-tolerance policy."""
        return replace(self, retry=retry)

    def with_memory_budget(self, memory_budget_bytes: int | None) -> "MiningConfig":
        """Copy of this configuration with a different worker memory budget.

        A pure execution detail (like ``retry``): budgeted and unbudgeted
        runs mine byte-identical pattern sets — the budget only governs how
        shards are sized, watched and recovered under memory pressure.
        """
        return replace(self, memory_budget_bytes=memory_budget_bytes)

    def adopt_execution(self, other: "MiningConfig") -> "MiningConfig":
        """Copy of this configuration with ``other``'s execution details.

        Adopts every field in ``_EXECUTION_FIELDS`` — backend, worker count,
        retry policy, checkpoint path, memory budget — while keeping every
        other field of ``self``: the mining parameters, each of which can
        change a mined pattern or a work counter.  This is how an appended
        or resumed session follows the *current* run's execution environment
        without being able to drift on anything that could change the mined
        pattern set.
        """
        return replace(
            self, **{name: getattr(other, name) for name in _EXECUTION_FIELDS}
        )

    def with_thresholds(
        self, min_support: float | None = None, min_confidence: float | None = None
    ) -> "MiningConfig":
        """Copy of this configuration with different σ and/or δ."""
        return replace(
            self,
            min_support=self.min_support if min_support is None else min_support,
            min_confidence=(
                self.min_confidence if min_confidence is None else min_confidence
            ),
        )
