"""Unit tests for event collection (repro.core.events) and the HPG structure."""

from __future__ import annotations

import pytest

from repro import Relation, TemporalPattern
from repro.core.events import collect_events, format_event, parse_event
from repro.core.hpg import CombinationNode, EventNode, HierarchicalPatternGraph
from repro.timeseries import EventInstance

from reference_miner import from_rows


class TestEventHelpers:
    def test_format_and_parse_roundtrip(self):
        key = ("Kitchen Lights", "On")
        assert parse_event(format_event(key)) == key

    def test_parse_uses_last_colon(self):
        assert parse_event("sensor:1:On") == ("sensor:1", "On")

    def test_parse_invalid(self):
        with pytest.raises(ValueError):
            parse_event("no-colon")


class TestCollectEvents:
    def test_collect_groups_by_event_and_sequence(self, paper_sequence_db):
        events = collect_events(paper_sequence_db)
        assert set(events) == {
            ("K", "On"),
            ("T", "On"),
            ("M", "On"),
            ("C", "On"),
            ("I", "On"),
            ("B", "On"),
        }
        kitchen = events[("K", "On")]
        assert kitchen.support == 4
        assert kitchen.series == "K"
        assert kitchen.symbol == "On"
        assert kitchen.instance_count == 4
        assert len(kitchen.instances_in(0)) == 1
        assert kitchen.instances_in(99) == []

    def test_instances_sorted_chronologically(self, paper_sequence_db):
        events = collect_events(paper_sequence_db)
        for event in events.values():
            for instances in event.instances_by_sequence.values():
                assert instances == sorted(instances)


class TestHierarchicalPatternGraph:
    def _graph(self) -> HierarchicalPatternGraph:
        graph = HierarchicalPatternGraph(n_sequences=4)
        for name, sequences in [("K", [0, 1, 2, 3]), ("T", [0, 1, 2]), ("M", [0, 1])]:
            instance = EventInstance(0, 1, name, "On")
            graph.add_event_node(
                EventNode(
                    event=(name, "On"),
                    instances_by_sequence={s: [instance] for s in sequences},
                )
            )
        return graph

    def test_level1_queries(self):
        graph = self._graph()
        assert graph.frequent_events() == [("K", "On"), ("T", "On"), ("M", "On")]
        assert graph.event_support(("K", "On")) == 4
        assert graph.event_support(("Z", "On")) == 0
        assert graph.max_level() == 1

    def test_combination_nodes_and_pair_lookup(self):
        graph = self._graph()
        node = CombinationNode(events=(("K", "On"), ("T", "On")))
        pattern = TemporalPattern(events=(("K", "On"), ("T", "On")), relations=(Relation.CONTAIN,))
        node.patterns[pattern] = from_rows(pattern, [(0, (0, 0))])
        graph.add_combination_node(node)
        assert graph.max_level() == 2
        assert graph.nodes_at(2) == [node]
        assert graph.node_for((("K", "On"), ("T", "On"))) is node
        # pair_node sorts the two events before looking up the node.
        assert graph.pair_node(("T", "On"), ("K", "On")) is node
        assert graph.pair_node(("K", "On"), ("M", "On")) is None
        entries = list(graph.iter_pattern_entries())
        assert len(entries) == 1
        level, found_node, entry = entries[0]
        assert level == 2 and found_node is node and entry.pattern == pattern

    def test_pattern_entry_support(self):
        pattern = TemporalPattern(events=(("K", "On"), ("T", "On")), relations=(Relation.FOLLOW,))
        instance_k = EventInstance(0, 1, "K", "On")
        instance_t = EventInstance(2, 3, "T", "On")
        level1 = {
            (name, "On"): EventNode(
                event=(name, "On"),
                instances_by_sequence={0: [instance], 2: [instance]},
            )
            for name, instance in (("K", instance_k), ("T", instance_t))
        }
        entry = from_rows(pattern, [(0, (0, 0)), (0, (0, 0)), (2, (0, 0))])
        assert entry.support == 2
        assert entry.sequence_ids() == {0, 2}
        assert entry.n_occurrences == 3
        # The tuple view resolves the rows against the level-1 nodes passed.
        assert entry.occurrences(level1) == {
            0: [(instance_k, instance_t), (instance_k, instance_t)],
            2: [(instance_k, instance_t)],
        }
