"""Decision-tree cost profiler: unit behavior and engine integration."""

import pytest

from repro.checker import Checker
from repro.obs import Observer
from repro.obs.profile import DecisionProfiler
from repro.workloads.dining import dining_philosophers


class TestDecisionProfilerUnits:
    def test_descend_builds_one_node_per_prefix(self):
        p = DecisionProfiler()
        a = p.descend(p.root, 0)
        b = p.descend(a, 1)
        again = p.descend(p.descend(p.root, 0), 1)
        assert b is again
        assert p.nodes == 3  # root + two children

    def test_enter_walks_an_existing_prefix(self):
        p = DecisionProfiler()
        node = p.enter([0, 1, 0])
        assert node.depth == 3
        assert p.enter([0, 1, 0]) is node

    def test_add_step_accumulates_self_time(self):
        p = DecisionProfiler()
        node = p.enter([0])
        p.add_step(node, 0.25)
        p.add_step(node, 0.25)
        assert node.seconds == pytest.approx(0.5)
        assert node.steps == 2
        assert p.total_seconds == pytest.approx(0.5)

    def test_finish_execution_counts_executions(self):
        p = DecisionProfiler()
        node = p.enter([0])
        p.finish_execution(node, 0.1)
        assert node.executions == 1
        assert p.executions == 1

    def test_depth_cap_accumulates_at_the_cap(self):
        p = DecisionProfiler(max_depth=2)
        node = p.enter([0, 1, 0, 1])  # two levels below the cap
        assert node.depth == 2
        assert p.truncated == 2

    def test_node_cap_stops_allocation(self):
        p = DecisionProfiler(max_nodes=2)  # root + one child
        first = p.descend(p.root, 0)
        second = p.descend(p.root, 1)  # over the cap
        assert second is p.root
        assert p.truncated == 1
        p.add_step(first, 0.1)
        assert p.total_seconds == pytest.approx(0.1)

    def test_invalid_caps_raise(self):
        with pytest.raises(ValueError):
            DecisionProfiler(max_depth=0)
        with pytest.raises(ValueError):
            DecisionProfiler(max_nodes=0)

    def test_folded_output_format(self):
        p = DecisionProfiler()
        p.add_step(p.enter([0]), 0.001)
        p.add_step(p.enter([0, 2]), 0.002)
        lines = p.to_folded().splitlines()
        assert "root;0 1000" in lines
        assert "root;0;2 2000" in lines
        # Self time per line: tools sum descendants into ancestors.
        assert not any(line.startswith("root ") for line in lines)

    def test_folded_drops_sub_threshold_nodes(self):
        p = DecisionProfiler()
        p.add_step(p.enter([0]), 1e-9)
        assert p.to_folded() == ""
        assert p.to_folded(min_self_micros=0) != ""

    def test_hottest_ranks_by_subtree_time(self):
        p = DecisionProfiler()
        p.add_step(p.enter([0]), 0.001)
        p.add_step(p.enter([0, 0]), 0.010)
        p.add_step(p.enter([1]), 0.002)
        ranked = p.hottest(2)
        # root's subtree holds everything; [0]'s subtree beats [1].
        assert ranked[0][0] == ()
        assert ranked[1][0] == (0,)

    def test_to_dict_flattens_the_tree(self):
        p = DecisionProfiler()
        p.add_step(p.enter([0]), 0.001)
        d = p.to_dict()
        assert d["nodes"] == 2
        assert "0" in d["tree"]
        assert d["tree"]["0"]["steps"] == 1


class TestEngineIntegration:
    def run_profiled(self, strategy, **kwargs):
        profiler = DecisionProfiler()
        observer = Observer(profiler=profiler)
        result = Checker(
            dining_philosophers(2),
            strategy=strategy,
            depth_bound=200,
            stop_on_first_violation=False,
            stop_on_first_divergence=False,
            handle_signals=False,
            observer=observer,
            **kwargs,
        ).run()
        return result, profiler

    def test_dfs_populates_the_tree(self):
        result, profiler = self.run_profiled("dfs")
        assert profiler.executions == result.exploration.executions
        assert profiler.nodes > 1
        assert profiler.total_seconds > 0
        # Attributed steps cover every transition the engine ran
        # (replayed prefixes included, so >= the merged transition count).
        attributed = sum(node.steps for _, node in profiler.walk())
        assert attributed >= result.exploration.transitions

    @pytest.mark.parametrize("strategy,kwargs", [
        ("dfs", {}),
        ("bfs", {}),
        ("icb", {"preemption_bound": 2}),
        ("random", {"random_executions": 20}),
        ("por", {}),
    ])
    def test_every_strategy_profiles(self, strategy, kwargs):
        result, profiler = self.run_profiled(
            strategy, max_executions=40, **kwargs)
        assert profiler.executions > 0
        assert profiler.total_seconds > 0
        assert profiler.to_folded() != ""
