"""The batched pass's successor windows and its store grouping, against
brute force.

``engine._Windows`` drops a parent row before the pass gathers its other
columns when no instance of the new event in its sequence starts at or
after the row's last instance, and finds each kept row's ``[lo, hi)``
window with one ``searchsorted`` over ``int64`` (group, start rank) keys.
Here every row of random instance tables is checked against a scan of the
new event's instance list: a dropped row's window is empty, and a kept
row's window is the scan's, ``tmax`` edges included.  ``engine._pair_groups``
groups a pass's hits by (job, relation codes) with one stable sort; it is
checked against grouping Python tuples in a dict, also at code widths whose
keys would pass ``2**63``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine
from repro import RepresentationOverflowError
from repro.core.hpg import EventNode, InstanceTable
from repro.timeseries import EventInstance

#: Starts with ties, negatives, sums that round (0.1 + 0.2) and the tmax
#: bound of a first start 0.0 under tmax 1.0 (``1 + 8 * spacing(1.0)``).
STARTS = (
    -3.0, -1.5, 0.0, 0.1, 0.2, 0.30000000000000004, 1.0, 1.0 + 2**-49, 2.0, 2.5, 4.0
)
TMAX = (None, math.inf, 0.0, 0.1, 0.2, 1.0, 1.5, 2.0, 3.0)


@st.composite
def tables(draw):
    """Level-1 nodes of 1–4 events over 1–4 sequences: groups of one to
    six instances, point events among them, and empty groups."""
    n_sequences = draw(st.integers(1, 4))
    level1 = {}
    for number in range(draw(st.integers(1, 4))):
        event = (f"S{number}", "On")
        instances = {}
        for sequence in range(n_sequences):
            size = draw(st.sampled_from((0, 0, 1, 2, 6)))
            starts = draw(st.lists(st.sampled_from(STARTS), min_size=size, max_size=size))
            instances[sequence] = sorted(
                EventInstance(start, start + draw(st.sampled_from((0.0, 0.5, 1.0, 3.0))), *event)
                for start in starts
            )
        instances = {s: found for s, found in instances.items() if found}
        if instances:
            level1[event] = EventNode(event, instances)
    if not level1:
        level1[("S0", "On")] = EventNode(
            ("S0", "On"), {0: [EventInstance(0.0, 1.0, "S0", "On")]}
        )
    return level1, n_sequences


def _bound(first_start: float, tmax: float) -> float:
    """The closed-form tmax bound of a window, as the pass computes it."""
    bound = first_start + tmax
    return bound + 4 * (float(np.spacing(abs(bound))) + float(np.spacing(tmax)))


@settings(max_examples=200, deadline=None)
@given(tables(), st.sampled_from(TMAX), st.randoms(use_true_random=False))
def test_windows_equal_a_scan_of_the_instance_list(case, tmax, rng):
    level1, n_sequences = case
    table = InstanceTable(level1, n_sequences)
    windows = engine._Windows(table)
    events = list(table.index)
    # Every instance is some row's last instance, against every new event;
    # the row's first start is its own start, one ``tmax`` before another
    # start (so ``first start + tmax`` lands on it) or an earlier start.
    new_rows, sequences, last, first_starts = [], [], [], []
    for row, event in enumerate(events):
        for sequence, instances in level1[event].instances_by_sequence.items():
            for position in range(len(instances)):
                flat = int(table.offset[row, sequence]) + position
                start = float(table.starts[flat])
                earlier = [s for s in table.starts.tolist() if s <= start]
                if tmax is not None and math.isfinite(tmax):
                    earlier += [s - tmax for s in table.starts.tolist() if s - tmax <= start]
                for new in range(len(events)):
                    new_rows.append(new)
                    sequences.append(sequence)
                    last.append(flat)
                    first_starts.append(rng.choice([start, *earlier]))
    new_rows, sequences = np.array(new_rows), np.array(sequences)
    last, first_starts = np.array(last), np.array(first_starts)
    kept = windows.extends(new_rows, sequences, table.starts[last])
    first = table.offset[new_rows, sequences]
    stop = first + table.count[new_rows, sequences]
    lo, hi = windows.bounds(
        new_rows[kept] * n_sequences + sequences[kept],
        last[kept],
        first_starts[kept],
        tmax,
        stop[kept],
    )
    window_of = dict(zip(np.flatnonzero(kept).tolist(), zip(lo.tolist(), hi.tolist())))
    for i in range(len(new_rows)):
        instances = level1[events[new_rows[i]]].instances_by_sequence.get(sequences[i], [])
        last_start = float(table.starts[last[i]])
        scan_lo = next(
            (j for j, inst in enumerate(instances) if inst.start >= last_start),
            len(instances),
        )
        if not kept[i]:
            assert scan_lo == len(instances), "a dropped row has a successor"
            continue
        scan_hi = len(instances)
        if tmax is not None and math.isfinite(tmax):
            bound = _bound(float(first_starts[i]), tmax)
            scan_hi = sum(inst.start <= bound for inst in instances)
        lo_i, hi_i = window_of[i]
        assert (lo_i, hi_i) == (first[i] + scan_lo, first[i] + scan_hi)
        # The window holds every successor start the exact tmax mask passes.
        for j, inst in enumerate(instances):
            if inst.start >= last_start and (
                tmax is None or inst.end - float(first_starts[i]) <= tmax
            ):
                assert lo_i <= first[i] + j < hi_i


def test_latest_is_each_groups_last_start():
    level1 = {
        ("A", "On"): EventNode(
            ("A", "On"),
            {0: [EventInstance(-2.0, -1.0, "A", "On"), EventInstance(3.0, 3.0, "A", "On")]},
        ),
        ("B", "On"): EventNode(("B", "On"), {1: [EventInstance(5.0, 6.0, "B", "On")]}),
    }
    windows = engine._Windows(InstanceTable(level1, 2))
    assert windows.latest.tolist() == [[3.0, -math.inf], [-math.inf, 5.0]]
    assert windows.distinct.tolist() == [-2.0, 3.0, 5.0]
    # group * (3 distinct + 1) + rank; groups are (row, sequence) cells.
    assert windows.keys.tolist() == [0 * 4 + 0, 0 * 4 + 1, 3 * 4 + 2]
    # A tie with the latest start stays: a successor may share the start.
    assert windows.extends(np.array([0, 0]), np.array([0, 0]), np.array([3.0, 3.5])).tolist() == [True, False]


def test_tmax_window_edges():
    """A start at ``first start + tmax`` and one on the slackened bound are
    inside the window; the next float past the bound is not."""
    starts = [1.0, 1.0 + 2**-49, 1.0 + 2**-48]
    level1 = {
        ("A", "On"): EventNode(("A", "On"), {0: [EventInstance(0.0, 0.0, "A", "On")]}),
        ("B", "On"): EventNode(
            ("B", "On"), {0: [EventInstance(s, s, "B", "On") for s in starts]}
        ),
    }
    table = InstanceTable(level1, 1)
    windows = engine._Windows(table)
    assert _bound(0.0, 1.0) == starts[1]
    new, sequence = np.array([1]), np.array([0])
    assert windows.extends(new, sequence, np.array([0.0])).tolist() == [True]
    lo, hi = windows.bounds(new, np.array([0]), np.array([0.0]), 1.0, np.array([4]))
    assert (lo.tolist(), hi.tolist()) == ([1], [3])


def test_window_keys_past_int64_raise():
    """``groups × (distinct starts + 1)`` past ``int64`` refuses to build,
    before any array of the table's shape is allocated (``count`` here is a
    zero-stride view of 2**62 one-byte cells)."""
    table = SimpleNamespace(
        starts=np.array([0.0, 1.0]),
        offset=None,
        count=np.broadcast_to(np.int8(0), (1 << 31, 1 << 31)),
    )
    with pytest.raises(RepresentationOverflowError, match="int64 window keys"):
        engine._Windows(table)


def _tuple_groups(jobs: np.ndarray, codes: np.ndarray):
    """Groups by Python tuples: a dict keeps first-hit order."""
    groups: dict[tuple, list[int]] = {}
    for position, key in enumerate(zip(jobs.tolist(), map(tuple, codes.tolist()))):
        groups.setdefault(key, []).append(position)
    members = list(groups.values())
    return (
        [position for group in members for position in group],
        [group[0] for group in members],
        [len(group) for group in members],
    )


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((1, 2, 3, 6, 39, 40, 41, 64)),
    st.sampled_from((1, 7, 1 << 20, 1 << 40)),
    st.integers(1, 120),
    st.integers(1, 6),
    st.randoms(use_true_random=False),
)
def test_pair_groups_equal_tuple_grouping(width, n_jobs, n_pairs, n_rows, rng):
    """Jobs × 3**width passes 2**63 from 40 code columns on (and earlier for
    large job numbers), so those keys fold through ranks."""
    pool = [[rng.randrange(3) for _ in range(width)] for _ in range(n_rows)]
    job_pool = [rng.randrange(n_jobs) for _ in range(4)]
    jobs = np.array([rng.choice(job_pool) for _ in range(n_pairs)], dtype=np.int64)
    codes = np.array([rng.choice(pool) for _ in range(n_pairs)], dtype=np.int8)
    order, first_hit, sizes = engine._pair_groups(jobs, codes)
    assert (order.tolist(), first_hit.tolist(), sizes.tolist()) == _tuple_groups(
        jobs, codes
    )


def test_pair_groups_keys_that_would_wrap():
    """Two code rows whose base-3 values differ by exactly 2**64 wrap to one
    ``int64`` key unless the fold ranks first."""
    width = 41
    digits = [5, 5 + 2**64]
    assert digits[1] < 3**width
    codes = np.array(
        [[value // 3**p % 3 for p in range(width - 1, -1, -1)] for value in digits],
        dtype=np.int8,
    )
    jobs = np.zeros(2, dtype=np.int64)
    order, first_hit, sizes = engine._pair_groups(jobs, codes)
    assert (order.tolist(), first_hit.tolist(), sizes.tolist()) == ([0, 1], [0, 1], [1, 1])


def test_pair_groups_at_the_int64_edge():
    """3**39 × 2 jobs fits below 2**63 and 3**40 does not: both sides of
    the first rank fold, on codes that differ only in the last column."""
    for width in (39, 40, 41):
        codes = np.zeros((6, width), dtype=np.int8)
        codes[:, -1] = [2, 0, 2, 1, 0, 2]
        jobs = np.array([1, 1, 0, 1, 1, 0])
        order, first_hit, sizes = engine._pair_groups(jobs, codes)
        assert (order.tolist(), first_hit.tolist(), sizes.tolist()) == _tuple_groups(
            jobs, codes
        )
