"""Fuzz parity between the vectorized relation kernel and the scalar classifier.

The scalar :func:`repro.core.relations.classify` is the executable
specification of Defs. 3.6–3.8 (including the Follow ≻ Contain ≻ Overlap
priority); :func:`repro.core.relation_kernel.classify_pairs` must agree with
it bit for bit on every ordered interval pair.  These tests fuzz that
equivalence over ~10k random pairs — drawn from a coarse grid so boundary-equal
endpoints occur constantly — across epsilon/min_overlap settings, plus
directed edge cases, empty batches and the window expansion helper.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import ConfigurationError
from repro.core.relation_kernel import (
    CONTAIN_CODE,
    FOLLOW_CODE,
    NO_RELATION_CODE,
    OVERLAP_CODE,
    classify_pairs,
    expand_windows,
)
from repro.core.relations import (
    RELATION_CODES,
    RELATIONS_BY_CODE,
    Relation,
    classify,
)
from repro.timeseries import EventInstance


def scalar_code(e1: EventInstance, e2: EventInstance, epsilon, min_overlap) -> int:
    relation = classify(e1, e2, epsilon, min_overlap)
    return NO_RELATION_CODE if relation is None else RELATION_CODES[relation]


def kernel_codes(pairs, epsilon, min_overlap) -> np.ndarray:
    return classify_pairs(
        np.array([p[0].start for p in pairs]),
        np.array([p[0].end for p in pairs]),
        np.array([p[1].start for p in pairs]),
        np.array([p[1].end for p in pairs]),
        epsilon,
        min_overlap,
    )


def random_ordered_pairs(seed: int, n_pairs: int) -> list[tuple[EventInstance, EventInstance]]:
    """Random chronologically ordered pairs on a coarse half-unit grid.

    The grid makes endpoint coincidences (equal starts, end == partner start,
    identical intervals) common instead of measure-zero, which is where the
    priority rules and the ``>=`` / ``>`` distinctions actually bite.
    """
    rng = random.Random(seed)
    pairs = []
    for index in range(n_pairs):
        def instance(tag: str) -> EventInstance:
            start = rng.randrange(0, 40) / 2.0
            duration = rng.randrange(0, 20) / 2.0
            return EventInstance(start, start + duration, f"S{tag}", "On")

        e1, e2 = instance("a"), instance("b")
        if (e1.start, e1.end) > (e2.start, e2.end):
            e1, e2 = (
                EventInstance(e2.start, e2.end, "Sa", "On"),
                EventInstance(e1.start, e1.end, "Sb", "On"),
            )
        pairs.append((e1, e2))
    return pairs


class TestCodeTable:
    def test_codes_match_relation_table(self):
        assert RELATIONS_BY_CODE[FOLLOW_CODE] is Relation.FOLLOW
        assert RELATIONS_BY_CODE[CONTAIN_CODE] is Relation.CONTAIN
        assert RELATIONS_BY_CODE[OVERLAP_CODE] is Relation.OVERLAP
        assert Relation.FOLLOW.code == FOLLOW_CODE
        assert Relation.CONTAIN.code == CONTAIN_CODE
        assert Relation.OVERLAP.code == OVERLAP_CODE
        assert NO_RELATION_CODE == -1
        assert len(RELATIONS_BY_CODE) == len(RELATION_CODES) == 3


class TestFuzzParity:
    @pytest.mark.parametrize(
        "epsilon,min_overlap",
        [(0.0, 1e-9), (0.0, 1.0), (0.5, 1.0), (1.0, 1.0), (0.25, 0.25), (0.0, 3.5)],
    )
    def test_kernel_matches_scalar_on_random_pairs(self, epsilon, min_overlap):
        pairs = random_ordered_pairs(seed=int(epsilon * 100 + min_overlap * 7), n_pairs=2000)
        expected = [scalar_code(e1, e2, epsilon, min_overlap) for e1, e2 in pairs]
        actual = kernel_codes(pairs, epsilon, min_overlap)
        assert actual.dtype == np.int8
        assert actual.tolist() == expected

    def test_kernel_matches_scalar_with_broadcast_shapes(self):
        """The block shape used by the miner: (n_occurrences, 1) × (n_new,)."""
        rng = random.Random(99)
        lefts = sorted(
            EventInstance(rng.randrange(0, 20) / 2.0, rng.randrange(0, 20) / 2.0 + 10.0, "L", "On")
            for _ in range(25)
        )
        rights = sorted(
            EventInstance(10.0 + rng.randrange(0, 20) / 2.0, 10.0 + rng.randrange(0, 30) / 2.0 + 10.0, "R", "On")
            for _ in range(40)
        )
        codes = classify_pairs(
            np.array([i.start for i in lefts])[:, None],
            np.array([i.end for i in lefts])[:, None],
            np.array([i.start for i in rights]),
            np.array([i.end for i in rights]),
            epsilon=0.5,
            min_overlap=1.0,
        )
        assert codes.shape == (25, 40)
        for row, e1 in enumerate(lefts):
            for column, e2 in enumerate(rights):
                assert codes[row, column] == scalar_code(e1, e2, 0.5, 1.0)


class TestBoundaryCases:
    def make(self, start, end, series="A"):
        return EventInstance(start, end, series, "On")

    def check(self, e1, e2, epsilon, min_overlap, expected_code):
        assert scalar_code(e1, e2, epsilon, min_overlap) == expected_code
        assert kernel_codes([(e1, e2)], epsilon, min_overlap)[0] == expected_code

    def test_exact_meet_is_follow(self):
        # e1.end == e2.start: Follow with or without epsilon.
        self.check(self.make(0, 5), self.make(5, 8), 0.0, 1e-9, FOLLOW_CODE)

    def test_epsilon_turns_small_overlap_into_follow(self):
        # e1 runs 0..5, e2 starts at 4.5: Overlap without slack, Follow with
        # epsilon=0.5 — and Follow wins by priority.
        self.check(self.make(0, 5), self.make(4.5, 9), 0.0, 0.4, OVERLAP_CODE)
        self.check(self.make(0, 5), self.make(4.5, 9), 0.5, 0.5, FOLLOW_CODE)

    def test_identical_instants_prefer_follow_under_epsilon(self):
        # Two zero-length instants at the same time satisfy both Follow and
        # Contain; the priority must pick Follow (paper's tie-break).
        self.check(self.make(3, 3), self.make(3, 3, "B"), 0.5, 0.5, FOLLOW_CODE)

    def test_identical_intervals_are_contain(self):
        self.check(self.make(2, 7), self.make(2, 7, "B"), 0.0, 1e-9, CONTAIN_CODE)

    def test_containment_with_epsilon_slack_at_the_end(self):
        # e2 pokes 0.4 past e1's end: Contain only once epsilon covers it.
        self.check(self.make(0, 10), self.make(2, 10.4), 0.0, 1e-9, OVERLAP_CODE)
        self.check(self.make(0, 10), self.make(2, 10.4), 0.4, 0.4, CONTAIN_CODE)

    def test_overlap_exactly_at_min_overlap_boundary(self):
        # Overlap duration == min_overlap: the >= makes it an Overlap ...
        self.check(self.make(0, 6), self.make(4, 9), 0.0, 2.0, OVERLAP_CODE)
        # ... one tick above min_overlap it fails (no relation at all).
        self.check(self.make(0, 6), self.make(4.5, 9), 0.0, 2.0, NO_RELATION_CODE)

    def test_short_overlap_is_no_relation(self):
        self.check(self.make(0, 5), self.make(4.9, 9), 0.0, 1.0, NO_RELATION_CODE)

    def test_empty_batch(self):
        empty = np.empty(0, dtype=np.float64)
        codes = classify_pairs(empty, empty, empty, empty, 0.0, 1.0)
        assert codes.dtype == np.int8
        assert codes.shape == (0,)

    def test_invalid_parameters_rejected_like_scalar(self):
        empty = np.empty(0, dtype=np.float64)
        with pytest.raises(ConfigurationError):
            classify_pairs(empty, empty, empty, empty, epsilon=-0.1)
        with pytest.raises(ConfigurationError):
            classify_pairs(empty, empty, empty, empty, min_overlap=0.0)


class TestWindows:
    def test_expand_windows_enumeration_order(self):
        left, right = expand_windows(np.array([1, 0, 3]), np.array([3, 0, 5]))
        assert left.tolist() == [0, 0, 2, 2]
        assert right.tolist() == [1, 2, 3, 4]

    def test_expand_windows_empty(self):
        left, right = expand_windows(np.array([2]), np.array([2]))
        assert left.size == 0 and right.size == 0
        left, right = expand_windows(np.empty(0, np.intp), np.empty(0, np.intp))
        assert left.size == 0 and right.size == 0
