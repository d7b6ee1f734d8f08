"""Scheduling policy tests."""

from repro.core.model import StepInfo
from repro.core.policies import (
    FairPolicy,
    NonfairPolicy,
    RoundRobinPolicy,
    fair_policy,
    nonfair_policy,
    round_robin_policy,
)

BOTH = frozenset({"t", "u"})


def step(tid, yielded=False, before=BOTH, after=BOTH):
    return StepInfo(tid=tid, enabled_before=frozenset(before),
                    enabled_after=frozenset(after), yielded=yielded)


class TestNonfair:
    def test_everything_schedulable(self):
        policy = NonfairPolicy()
        policy.register_thread("t")
        assert policy.schedulable(BOTH) == BOTH
        policy.observe_step(step("t", yielded=True))
        assert policy.schedulable(BOTH) == BOTH

    def test_not_fair(self):
        assert not NonfairPolicy.is_fair
        assert FairPolicy.is_fair


class TestFairPolicy:
    def starve_t(self, policy, rounds):
        """Run u through `rounds` yield-terminated windows."""
        for _ in range(rounds):
            policy.observe_step(step("u"))
            policy.observe_step(step("u", yielded=True))

    def test_k1_deprioritizes_after_second_yield(self):
        policy = FairPolicy()
        for tid in ("t", "u"):
            policy.register_thread(tid)
        self.starve_t(policy, 2)
        assert policy.schedulable(BOTH) == frozenset({"t"})

    def test_k2_needs_twice_as_many_yields(self):
        policy = FairPolicy(k=2)
        for tid in ("t", "u"):
            policy.register_thread(tid)
        # With k=2, only every 2nd yield is processed: after 2 windows
        # only one yield has been processed (window opened), no edge yet.
        self.starve_t(policy, 2)
        assert policy.schedulable(BOTH) == BOTH
        # Two more windows: the 4th yield is the 2nd processed — edge.
        self.starve_t(policy, 2)
        assert policy.schedulable(BOTH) == frozenset({"t"})

    def test_invalid_k_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            FairPolicy(k=0)

    def test_fairness_blocked(self):
        policy = FairPolicy()
        for tid in ("t", "u"):
            policy.register_thread(tid)
        assert not policy.fairness_blocked("u", BOTH)
        self.starve_t(policy, 2)
        assert policy.fairness_blocked("u", BOTH)
        assert not policy.fairness_blocked("t", BOTH)
        # A disabled thread is not "fairness blocked".
        assert not policy.fairness_blocked("u", frozenset({"t"}))

    def test_name_reflects_k(self):
        assert FairPolicy().name == "fair"
        assert FairPolicy(k=3).name == "fair(k=3)"


class TestRoundRobin:
    def test_single_choice_rotation(self):
        policy = RoundRobinPolicy()
        for tid in ("a", "b", "c"):
            policy.register_thread(tid)
        everyone = frozenset({"a", "b", "c"})
        assert policy.schedulable(everyone) == frozenset({"a"})
        policy.observe_step(step("a", before=everyone, after=everyone))
        assert policy.schedulable(everyone) == frozenset({"b"})
        policy.observe_step(step("b", before=everyone, after=everyone))
        assert policy.schedulable(everyone) == frozenset({"c"})
        policy.observe_step(step("c", before=everyone, after=everyone))
        assert policy.schedulable(everyone) == frozenset({"a"})

    def test_skips_disabled(self):
        policy = RoundRobinPolicy()
        for tid in ("a", "b", "c"):
            policy.register_thread(tid)
        policy.observe_step(step("a"))
        assert policy.schedulable(frozenset({"a", "c"})) == frozenset({"c"})

    def test_empty_enabled(self):
        assert RoundRobinPolicy().schedulable(frozenset()) == frozenset()


class TestFactories:
    def test_factories_produce_fresh_policies(self):
        factory = fair_policy()
        first, second = factory(), factory()
        assert first is not second
        assert isinstance(nonfair_policy()(), NonfairPolicy)
        assert isinstance(round_robin_policy()(), RoundRobinPolicy)
