"""Memory budgets and resource governance for the process engine.

Dense HTPGM levels are killed by memory, not CPU: a single shard whose
candidates explode into millions of instance pairs can drive a worker past
physical memory and summon the kernel OOM killer, which takes the whole run
(and PR 9's crash recovery can only resubmit the shard verbatim — guaranteed
to die again).  This module makes memory a *governed* resource instead:

* :class:`MemoryBudget` — a total byte budget for the run's worker fleet
  (``MiningConfig(memory_budget_bytes=...)`` / ``repro mine
  --memory-budget``), divided into equal per-worker shares.
* :class:`ResourceGovernor` — the coordinator side.  Before a level is
  split, it estimates each shard's working set from data the engine already
  has — the miner's per-candidate cost estimates (instance-pair counts), the
  context's columnar ``nbytes`` (see :func:`estimate_context_bytes`) — and
  raises the shard count until no shard's estimated transient footprint
  exceeds its share of the budget.
* :class:`MemoryWatchdog` — the worker side.  A stdlib-only resident-set
  poll (``/proc/self/statm``, falling back to ``resource.getrusage``)
  consulted between candidates; when the worker's RSS *growth* since shard
  start crosses the per-worker share the shard aborts with a typed
  :class:`~repro.exceptions.MemoryBudgetExceeded` — a clean, picklable
  Python exception the coordinator can recover from, instead of a SIGKILL
  it cannot.

Estimates are deliberately heuristics: they only steer the up-front split.
Correctness does not depend on them — the watchdog catches what the
estimator missed, and the engine's split-and-degrade retry loop
(:meth:`repro.core.engine.ProcessPoolBackend._run_shards`) guarantees the
mined output is byte-identical with or without a budget.

The watchdog only ever arms inside worker processes (:func:`worker_scope`
is entered by the pool entry points): the serial backend and the engine's
in-process degradation fallback evaluate without one, so "drop to serial"
is a terminal recovery step, not a loop.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from ..exceptions import ConfigurationError, MemoryBudgetExceeded

__all__ = [
    "MemoryBudget",
    "MemoryWatchdog",
    "ResourceGovernor",
    "MemoryBudgetExceeded",
    "parse_byte_size",
    "current_rss",
    "estimate_context_bytes",
    "worker_scope",
    "in_worker_scope",
    "shard_watchdog",
]

_KIB = 1024
_SIZE_SUFFIXES = {
    "k": _KIB,
    "kb": _KIB,
    "m": _KIB**2,
    "mb": _KIB**2,
    "g": _KIB**3,
    "gb": _KIB**3,
}


def parse_byte_size(text: str | int) -> int:
    """Parse a human byte size (``"512M"``, ``"2G"``, ``"1048576"``) to bytes.

    Suffixes are binary (K = 1024) and case-insensitive; a bare integer is
    bytes.  Raises :class:`ConfigurationError` on anything unparseable or
    non-positive, mirroring :class:`~repro.core.config.MiningConfig`'s own
    validation style.
    """
    if isinstance(text, int):
        amount = text
    else:
        cleaned = str(text).strip().lower()
        multiplier = 1
        for suffix, factor in sorted(
            _SIZE_SUFFIXES.items(), key=lambda item: -len(item[0])
        ):
            if cleaned.endswith(suffix):
                cleaned = cleaned[: -len(suffix)].strip()
                multiplier = factor
                break
        try:
            amount = int(float(cleaned) * multiplier)
        except ValueError:
            raise ConfigurationError(
                f"unparseable byte size {text!r}; expected e.g. 268435456, "
                "'256M' or '2G'"
            ) from None
    if amount < 1:
        raise ConfigurationError(f"byte size must be >= 1, got {text!r}")
    return amount


# --------------------------------------------------------------------------- RSS probes
_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def current_rss() -> int:
    """This process's resident set size in bytes (stdlib only).

    ``/proc/self/statm`` gives the *current* RSS on Linux;
    ``resource.getrusage`` is the portable fallback — its ``ru_maxrss`` is a
    high-water mark, which still works for the watchdog's growth check
    (growth of a high-water mark lower-bounds growth of the current RSS)
    but never decreases.  Returns 0 when neither source is available, which
    disarms any check built on top.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource as _resource

        usage = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS reports bytes; both are "close enough"
        # for a fallback that only feeds a growth comparison.
        return int(usage) * (_KIB if os.uname().sysname != "Darwin" else 1)
    except Exception:  # pragma: no cover - exotic platforms
        return 0


# --------------------------------------------------------------------------- budget
@dataclass(frozen=True)
class MemoryBudget:
    """A total byte budget shared equally by a run's worker fleet."""

    total_bytes: int

    def __post_init__(self) -> None:
        if self.total_bytes < 1:
            raise ConfigurationError(
                f"memory budget must be >= 1 byte, got {self.total_bytes}"
            )

    def worker_share(self, n_workers: int) -> int:
        """One worker's equal share of the budget (at least 1 byte)."""
        return max(1, self.total_bytes // max(1, n_workers))


# --------------------------------------------------------------------------- watchdog
#: RSS is re-read every this many :meth:`MemoryWatchdog.check` calls; the
#: probes are ~µs but candidate loops can be millions long.
_CHECK_EVERY = 4


class MemoryWatchdog:
    """Aborts a shard when this process's RSS growth exceeds its share.

    The limit applies to the *growth* since construction, not the absolute
    RSS: a forked worker starts with the parent's copy-on-write pages
    already resident, and a pooled worker carries its warm interpreter —
    neither is this shard's doing.  What the shard allocates on top is.
    """

    def __init__(self, limit_bytes: int, probe=None) -> None:
        if limit_bytes < 1:
            raise ConfigurationError(
                f"watchdog limit must be >= 1 byte, got {limit_bytes}"
            )
        self.limit_bytes = limit_bytes
        # Resolved at construction (not def) time so tests can swap the
        # module-level probe before workers arm their watchdogs.
        self._probe = probe if probe is not None else current_rss
        self._baseline = self._probe()
        self._calls = 0

    @property
    def baseline_bytes(self) -> int:
        """RSS observed at shard start."""
        return self._baseline

    def growth(self) -> int:
        """Bytes of RSS growth since shard start (never negative)."""
        return max(0, self._probe() - self._baseline)

    def check(self) -> None:
        """Raise :class:`MemoryBudgetExceeded` when over the share.

        Throttled: the RSS is re-read once every ``_CHECK_EVERY`` calls, so
        the per-candidate cost is an integer increment almost always.
        """
        self._calls += 1
        if self._calls % _CHECK_EVERY:
            return
        grown = self.growth()
        if grown > self.limit_bytes:
            raise MemoryBudgetExceeded(
                f"shard working set grew {grown} bytes, over its "
                f"{self.limit_bytes}-byte share of the memory budget"
            )


#: True only inside a process-pool worker task (set by the engine's worker
#: entry points).  The coordinator, the serial backend and the engine's
#: in-process degradation fallback all evaluate with this False, so the
#: watchdog cannot turn the terminal "drop to serial" recovery into a loop.
_IN_WORKER_SCOPE = False


class worker_scope:
    """Context manager marking "we are inside a worker task" for this process."""

    def __enter__(self) -> "worker_scope":
        global _IN_WORKER_SCOPE
        self._previous = _IN_WORKER_SCOPE
        _IN_WORKER_SCOPE = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _IN_WORKER_SCOPE
        _IN_WORKER_SCOPE = self._previous


def in_worker_scope() -> bool:
    """Whether this process is currently executing a worker task."""
    return _IN_WORKER_SCOPE


def shard_watchdog(context) -> MemoryWatchdog | None:
    """The watchdog one shard evaluation should poll, if any.

    Armed only when the shipped :class:`~repro.core.engine.LevelContext`
    carries a per-worker share *and* this process is inside a worker task.
    """
    limit = getattr(context, "memory_share_bytes", None)
    if limit is None or not in_worker_scope():
        return None
    return MemoryWatchdog(limit)


# --------------------------------------------------------------------------- estimation
def estimate_context_bytes(context) -> int:
    """Estimated resident bytes of one shipped level context.

    Walks the context's columnar data — the level-1 nodes' cached start/end
    arrays and the parent entries' index matrices — which is what grows with
    the data.  Anything that is not a level context prices at 0 (estimation
    must never fail a run).
    """
    total = 0
    for node in getattr(context, "level1", {}).values():
        for starts, ends in (getattr(node, "_sequence_arrays", None) or {}).values():
            total += getattr(starts, "nbytes", 0) + getattr(ends, "nbytes", 0)
    for parent in getattr(context, "parents", {}).values():
        for entry in getattr(parent, "patterns", {}).values():
            try:
                for _sequence_id, matrix in entry.iter_index_matrices():
                    total += matrix.nbytes
            except Exception:
                continue
    return total


# --------------------------------------------------------------------------- governor
class ResourceGovernor:
    """Coordinator-side budget arithmetic for the process engine.

    One instance per :class:`~repro.core.engine.ProcessPoolBackend`; it owns
    the :class:`MemoryBudget` and answers two questions:

    * how many shards a level batch needs so that no shard's *estimated*
      transient working set exceeds a worker's share
      (:meth:`plan_shards`), and
    * what per-worker share the workers' watchdogs should enforce
      (:attr:`worker_share`).

    The governor's shard counts are planning, not enforcement — shards that
    outgrow the estimate are caught by the watchdog and recovered by the
    engine's split-and-degrade loop.
    """

    def __init__(self, budget_bytes: int, n_workers: int) -> None:
        self.budget = MemoryBudget(parse_byte_size(budget_bytes))
        self.n_workers = max(1, n_workers)

    @property
    def worker_share(self) -> int:
        """One worker's byte share of the total budget."""
        return self.budget.worker_share(self.n_workers)

    def plan_shards(
        self,
        base_shards: int,
        costs,
        bytes_per_cost: float,
        max_shards: int,
        context_bytes: int = 0,
    ) -> int:
        """Shard count keeping each shard's estimated footprint in budget.

        ``costs`` are the miner's per-candidate cost estimates (instance-pair
        counts); ``bytes_per_cost`` converts them to transient kernel bytes
        (the engine supplies its per-level pair/cell constants);
        ``context_bytes`` is the shared read-only payload, subtracted from
        the share to get the transient headroom.  A floor of 1/8 of the
        share guards against a context so large it would zero the headroom
        and explode the shard count.  Never returns fewer than
        ``base_shards`` (the CPU-driven split) nor more than ``max_shards``
        (one candidate per shard is the physical floor).
        """
        total_cost = float(sum(costs))
        if total_cost <= 0:
            return base_shards
        share = self.worker_share
        headroom = max(share - context_bytes, share // 8, 1)
        cap_cost = max(headroom / max(1.0, float(bytes_per_cost)), 1.0)
        needed = int(math.ceil(total_cost / cap_cost))
        return max(base_shards, min(max_shards, needed))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ResourceGovernor(total={self.budget.total_bytes}, "
            f"n_workers={self.n_workers})"
        )
