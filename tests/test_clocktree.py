"""Tests for the clock-tree baseline substrate and the HEX comparison."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clocktree.comparison import compare_scaling
from repro.clocktree.delays import TreeDelayConfig, nominal_element_delays, sample_element_delays
from repro.clocktree.faults import robustness_report, sinks_lost_by_fault, subtree_sink_counts
from repro.clocktree.htree import build_htree
from repro.clocktree.simulation import sink_arrival_times, tree_skew_report


class TestHTreeStructure:
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_sink_count_is_4_to_the_k(self, levels):
        tree = build_htree(levels)
        assert tree.num_sinks == 4**levels
        assert tree.depth() == levels

    def test_node_count(self):
        tree = build_htree(3)
        # 1 + 4 + 16 + 64 internal+leaf nodes.
        assert tree.num_nodes == 1 + 4 + 16 + 64

    def test_equal_root_to_sink_wire_length(self):
        """The defining property of an H-tree: all root-to-sink paths have equal length."""
        tree = build_htree(3, span=8.0)
        lengths = {round(tree.root_to_sink_wire_length(s), 9) for s in tree.sink_indices()}
        assert len(lengths) == 1

    def test_top_level_segment_is_longest_and_scales(self):
        small = build_htree(2, span=4.0)
        large = build_htree(4, span=16.0)
        assert large.max_segment_length() > small.max_segment_length()
        # The longest segment is a top-level arm: half of a quadrant diagonal.
        assert large.max_segment_length() == pytest.approx(8.0)

    def test_sinks_form_a_regular_grid(self):
        tree = build_htree(3)
        grid = tree.sink_grid()
        side = 2**3
        assert len(grid) == side * side
        assert set(grid) == {(r, c) for r in range(side) for c in range(side)}

    def test_path_to_root(self):
        tree = build_htree(2)
        sink = tree.sink_indices()[0]
        path = tree.path_to_root(sink)
        assert path[-1] == 0
        assert len(path) == 3  # sink, level-1 buffer, root

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_htree(0)
        with pytest.raises(ValueError):
            build_htree(2, span=0.0)


class TestTreeDelays:
    def test_nominal_delays(self):
        tree = build_htree(2, span=4.0)
        config = TreeDelayConfig(wire_delay_per_unit=2.0, buffer_delay=0.5, relative_variation=0.0)
        delays = nominal_element_delays(tree, config)
        assert len(delays) == tree.num_nodes - 1
        node = tree.node(1)
        assert delays[1] == pytest.approx(2.0 * node.wire_length + 0.5)

    def test_sampled_delays_within_variation(self, rng):
        tree = build_htree(2, span=4.0)
        config = TreeDelayConfig(wire_delay_per_unit=2.0, buffer_delay=0.5, relative_variation=0.1)
        sampled = sample_element_delays(tree, config, rng=rng)
        nominal = nominal_element_delays(tree, config)
        for index, value in sampled.items():
            assert 0.9 * nominal[index] - 1e-9 <= value <= 1.1 * nominal[index] + 1e-9

    def test_sampled_delays_equal_two_scalar_draws_per_element(self):
        tree = build_htree(3, span=8.0)
        config = TreeDelayConfig(wire_delay_per_unit=2.0, buffer_delay=0.5, relative_variation=0.1)
        sampled = sample_element_delays(tree, config, rng=np.random.default_rng(4))
        scalar = np.random.default_rng(4)
        for node in tree.nodes():
            if node.parent is None:
                continue
            wire = 2.0 * node.wire_length * float(scalar.uniform(0.9, 1.1))
            buffer = 0.5 * float(scalar.uniform(0.9, 1.1))
            assert sampled[node.index] == wire + buffer

    def test_zero_variation_matches_nominal(self, rng):
        tree = build_htree(2)
        config = TreeDelayConfig(relative_variation=0.0)
        assert sample_element_delays(tree, config, rng=rng) == pytest.approx(
            nominal_element_delays(tree, config)
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TreeDelayConfig(wire_delay_per_unit=0.0)
        with pytest.raises(ValueError):
            TreeDelayConfig(relative_variation=1.5)
        with pytest.raises(ValueError):
            TreeDelayConfig(buffer_delay=-1.0)


class TestTreeSkew:
    def test_zero_variation_means_zero_skew(self, rng):
        tree = build_htree(3, span=8.0)
        config = TreeDelayConfig(relative_variation=0.0)
        report = tree_skew_report(tree, config, rng=rng)
        assert report.global_skew == pytest.approx(0.0)
        assert report.max_neighbor_skew == pytest.approx(0.0)

    def test_arrival_times_are_path_sums(self, rng):
        tree = build_htree(2, span=4.0)
        config = TreeDelayConfig()
        delays = sample_element_delays(tree, config, rng=rng)
        arrivals = sink_arrival_times(tree, delays)
        sink = tree.sink_indices()[5]
        expected = sum(delays[i] for i in tree.path_to_root(sink) if i != 0)
        assert arrivals[sink] == pytest.approx(expected)

    def test_variation_creates_neighbor_skew_that_grows_with_size(self, rng):
        config = TreeDelayConfig(wire_delay_per_unit=8.0, relative_variation=0.1)
        small = tree_skew_report(build_htree(2, span=4.0), config, seed=1)
        large = tree_skew_report(build_htree(4, span=16.0), config, seed=1)
        assert large.max_neighbor_skew > small.max_neighbor_skew
        assert large.max_neighbor_disjoint_path > small.max_neighbor_disjoint_path

    def test_disjoint_path_of_cross_subtree_neighbours_is_large(self):
        tree = build_htree(3, span=8.0)
        config = TreeDelayConfig(relative_variation=0.0)
        report = tree_skew_report(tree, config, seed=0)
        # Adjacent sinks served by different top-level subtrees share only the
        # root, so the disjoint part is nearly twice the root-to-sink length.
        full_path = tree.root_to_sink_wire_length(tree.sink_indices()[0])
        assert report.max_neighbor_disjoint_path == pytest.approx(2 * full_path)


class TestTreeFaults:
    def test_subtree_counts(self):
        tree = build_htree(2)
        counts = subtree_sink_counts(tree)
        assert counts[0] == 16
        level1 = [n.index for n in tree.nodes() if n.level == 1]
        assert all(counts[i] == 4 for i in level1)

    def test_sinks_lost(self):
        tree = build_htree(3)
        assert sinks_lost_by_fault(tree, 0) == 64
        level1 = [n.index for n in tree.nodes() if n.level == 1][0]
        assert sinks_lost_by_fault(tree, level1) == 16
        with pytest.raises(ValueError):
            sinks_lost_by_fault(tree, 10_000)

    def test_robustness_report(self):
        tree = build_htree(3)
        report = robustness_report(tree)
        assert report.num_sinks == 64
        assert report.worst_case_lost == 64
        assert report.worst_case_internal_lost == 16
        assert not report.single_fault_tolerated
        assert 1.0 < report.expected_lost < 64.0


class TestScalingComparison:
    def test_shapes_of_title_claim(self):
        rows = compare_scaling(tree_levels=(2, 3, 4), runs_per_size=3, seed=1)
        assert [row.num_endpoints for row in rows] == [16, 64, 256]
        # HEX wire length is constant; the tree's grows with sqrt(n).
        assert all(row.hex_max_wire_length == 1.0 for row in rows)
        tree_wires = [row.tree_max_wire_length for row in rows]
        assert tree_wires[1] == pytest.approx(2 * tree_wires[0])
        assert tree_wires[2] == pytest.approx(2 * tree_wires[1])
        # The tree loses a quarter of the die to its worst internal fault; HEX
        # loses one node.
        assert all(row.tree_worst_internal_fault_loss == row.num_endpoints // 4 for row in rows)
        assert all(row.hex_single_fault_loss == 1 for row in rows)
        # HEX's expected fault tolerance grows with sqrt(n).
        assert rows[-1].hex_expected_faults_tolerated > rows[0].hex_expected_faults_tolerated

    def test_tree_neighbor_skew_eventually_exceeds_hex_bound(self):
        rows = compare_scaling(tree_levels=(2, 5), runs_per_size=3, seed=1)
        assert rows[-1].tree_max_neighbor_skew > rows[-1].hex_neighbor_skew_bound
        # ... which is the crossover the title refers to.
        assert rows[0].tree_max_neighbor_skew < rows[-1].tree_max_neighbor_skew
