"""Deterministic fault injection for the execution layer.

Fault tolerance is only trustworthy if every recovery path can be exercised
on demand, at an exact coordinate, and reproducibly in CI.  This module is
that trigger: a :class:`FaultPlan` names faults by ``(kind, level, shard)``
and the coordinator consults it while scheduling shards, arming at most one
fault per matching attempt.  Crucially the *coordinator* decides which
attempt is faulty — workers merely execute a directive passed in their
submit arguments — so retried attempts run clean without any shared state
between processes, and the spawn start method needs no plan propagation.

Plans come from two places, checked in order:

1. A plan installed programmatically via :func:`install_plan` (tests).
2. The ``REPRO_FAULT`` environment variable, e.g.::

       REPRO_FAULT="crash:level=2,shard=1"  repro mine ...
       REPRO_FAULT="hang:level=3,seconds=120;pickle:level=2,times=2"  ...

Supported kinds:

``crash``
    The worker process calls ``os._exit(1)`` before evaluating the shard —
    a hard death that surfaces as ``BrokenProcessPool`` on the coordinator.
``hang``
    The worker sleeps ``seconds`` (default 60) before evaluating, which
    trips ``RetryPolicy.shard_timeout``.
``pickle``
    The worker raises :class:`pickle.PicklingError` instead of returning —
    the transport-failure shape of an unpicklable shard result.
``oom``
    The worker raises ``MemoryError`` before evaluating the shard — the
    allocator-failure shape the memory governor must recover from by
    splitting the shard, without actually exhausting RAM in CI.
``membudget``
    The worker raises :class:`~repro.exceptions.MemoryBudgetExceeded`
    before evaluating — the watchdog-abort shape, testable at exact
    coordinates regardless of real resident-set sizes.
``pool``
    Coordinator-side: constructing/obtaining the executor for the matching
    level raises ``OSError`` (resource exhaustion), driving the
    degrade-to-serial path.
``exit``
    Coordinator-side: the mining loop calls ``os._exit(113)`` immediately
    before evaluating the matching level — an un-catchable death used to
    test checkpoint/resume.

Every fault fires a bounded number of ``times`` (default 1), after which
the plan is spent and the run proceeds clean; injection is therefore
deterministic — same plan, same coordinates, same recovery — with no random
source anywhere.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass

from ..exceptions import ConfigurationError, MemoryBudgetExceeded

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "WORKER_KINDS",
    "MEMORY_KINDS",
    "COORDINATOR_KINDS",
    "install_plan",
    "active_plan",
    "coordinator_exit",
    "apply_worker_fault",
]

#: Fault kinds executed inside a worker process, as ``(kind, seconds)``
#: directives attached to the shard's submit arguments.
WORKER_KINDS = ("crash", "hang", "pickle", "oom", "membudget")
#: The subset of worker kinds that surface as memory pressure; the engine's
#: serial degradation fallback consults exactly these so a ``times=N`` plan
#: can drive recovery all the way to the one-candidate floor.
MEMORY_KINDS = ("oom", "membudget")
#: Fault kinds executed on the coordinator itself.
COORDINATOR_KINDS = ("pool", "exit")
_ALL_KINDS = WORKER_KINDS + COORDINATOR_KINDS

#: Exit status of an injected coordinator death — distinctive on purpose so
#: tests can tell "the fault fired" apart from ordinary failures.
EXIT_STATUS = 113


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault: what, where, how often.

    ``level`` / ``shard`` of ``None`` are wildcards matching any coordinate;
    ``times`` bounds how many attempts the fault fires on before the spec is
    spent; ``seconds`` parameterises ``hang`` (sleep length).
    """

    kind: str
    level: int | None = None
    shard: int | None = None
    times: int = 1
    seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {', '.join(_ALL_KINDS)}"
            )
        if self.times < 1:
            raise ConfigurationError(f"fault times must be >= 1, got {self.times}")
        if self.seconds < 0:
            raise ConfigurationError(
                f"fault seconds must be >= 0, got {self.seconds}"
            )

    def matches(self, level: int | None, shard: int | None = None) -> bool:
        """Whether this spec applies at the given coordinate."""
        if self.level is not None and level != self.level:
            return False
        if self.shard is not None and shard != self.shard:
            return False
        return True


class FaultPlan:
    """An ordered set of :class:`FaultSpec`\\ s with per-spec firing counts.

    The plan is consumed via :meth:`take`: the first matching, unspent spec
    fires (its count increments) and its ``(kind, seconds)`` directive is
    returned.  A plan with no matching spec returns ``None`` — the common,
    fault-free case costs one tuple scan.
    """

    def __init__(self, specs: tuple[FaultSpec, ...] | list[FaultSpec] = ()):
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self._fired: dict[int, int] = {}

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def parse(cls, text: str | None) -> "FaultPlan":
        """Build a plan from ``REPRO_FAULT`` syntax.

        ``kind[:key=value,...]`` specs joined by ``;``.  Keys: ``level``,
        ``shard``, ``times`` (ints) and ``seconds`` (float).  Examples::

            crash:level=2,shard=1
            hang:level=3,seconds=0.5;pickle:level=2,times=2
        """
        specs: list[FaultSpec] = []
        for chunk in (text or "").split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            kind, _, params = chunk.partition(":")
            kwargs: dict[str, int | float] = {}
            for pair in params.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, sep, value = pair.partition("=")
                if not sep:
                    raise ConfigurationError(
                        f"malformed fault parameter {pair!r} in {chunk!r}; "
                        "expected key=value"
                    )
                key = key.strip()
                try:
                    if key in ("level", "shard", "times"):
                        kwargs[key] = int(value)
                    elif key == "seconds":
                        kwargs[key] = float(value)
                    else:
                        raise ConfigurationError(
                            f"unknown fault parameter {key!r} in {chunk!r}"
                        )
                except ValueError as error:
                    raise ConfigurationError(
                        f"invalid fault parameter value {pair!r} in {chunk!r}"
                    ) from error
            specs.append(FaultSpec(kind=kind.strip(), **kwargs))
        return cls(tuple(specs))

    def take(
        self,
        kinds: tuple[str, ...],
        level: int | None,
        shard: int | None = None,
    ) -> tuple[str, float] | None:
        """Consume one firing of the first matching, unspent spec.

        Returns the ``(kind, seconds)`` directive to execute, or ``None``
        when no fault is armed at this coordinate.
        """
        for index, spec in enumerate(self.specs):
            if spec.kind not in kinds:
                continue
            if not spec.matches(level, shard):
                continue
            fired = self._fired.get(index, 0)
            if fired >= spec.times:
                continue
            self._fired[index] = fired + 1
            return (spec.kind, spec.seconds)
        return None


#: Programmatically installed plan; wins over the environment variable.
_INSTALLED: FaultPlan | None = None


def install_plan(plan: FaultPlan | None) -> None:
    """Install (or with ``None`` clear) the process-wide fault plan."""
    global _INSTALLED
    _INSTALLED = plan


def active_plan() -> FaultPlan:
    """The plan injection points consult: installed plan, else ``REPRO_FAULT``.

    The environment variable is parsed fresh on each call so callers that
    want stable firing counts must capture the returned plan once (the
    engine captures it at backend construction, the session per run).
    """
    if _INSTALLED is not None:
        return _INSTALLED
    return FaultPlan.parse(os.environ.get("REPRO_FAULT"))


def coordinator_exit(plan: FaultPlan | None, level: int) -> None:
    """Die with :data:`EXIT_STATUS` if an ``exit`` fault is armed at ``level``.

    Called by the mining loop immediately before evaluating each level;
    ``os._exit`` bypasses ``finally`` blocks and ``atexit`` — the closest
    in-process stand-in for SIGKILL — so only previously checkpointed state
    survives.
    """
    if plan is not None and plan.take(("exit",), level) is not None:
        os._exit(EXIT_STATUS)


def apply_worker_fault(directive: tuple[str, float] | None) -> None:
    """Execute a worker-side fault directive; runs inside the worker process.

    Every kind either kills the worker, delays it, or raises before
    evaluation; ``None`` (no fault armed) does nothing.
    """
    if directive is None:
        return
    kind, seconds = directive
    if kind == "crash":
        os._exit(1)
    elif kind == "hang":
        time.sleep(seconds)
    elif kind == "pickle":
        raise pickle.PicklingError("injected pickling failure")
    elif kind == "oom":
        raise MemoryError("injected memory exhaustion")
    elif kind == "membudget":
        raise MemoryBudgetExceeded("injected memory-budget abort")
