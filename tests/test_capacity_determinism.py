"""Seeded-replay byte-identity for every capacity scenario.

The determinism bar (ROADMAP R2, lint rule DET001): a capacity run is a
pure function of its scenario value. Two constructions of the same
named scenario at the same seed must serialise to *identical bytes* —
not approximately equal floats — because the CI ``capacity-smoke`` job
literally ``cmp``s the JSON of two runs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capacity import (
    capacity_scenario_names,
    make_capacity_scenario,
    run_capacity,
)
from repro.core import CaasperConfig, ReactivePolicy
from repro.engine import batch
from repro.obs import Observer
from repro.trace import CpuTrace

#: Every replay-tested scenario (cluster-day excluded here: its 1k-pod
#: default belongs to the benchmark; the small ones run in CI tests).
SCENARIOS = ("hotspot-node", "correlated-surge", "drain-during-resize", "capacity-chaos")


def _hour(name):
    """``name`` at seed 11 for an hour, cluster-day cut to 16 pods."""
    sizes = {"pods": 16} if name == "cluster-day" else {}
    return make_capacity_scenario(name, seed=11, minutes=60, **sizes)


def test_registry_lists_all_scenarios():
    names = capacity_scenario_names()
    assert set(SCENARIOS) <= set(names)
    assert "cluster-day" in names
    assert names == sorted(names)


@pytest.mark.parametrize("name", SCENARIOS)
def test_same_seed_is_byte_identical(name):
    first = run_capacity(make_capacity_scenario(name, seed=11))
    second = run_capacity(make_capacity_scenario(name, seed=11))
    assert first.canonical_json() == second.canonical_json()


@pytest.mark.parametrize("name", (*SCENARIOS, "cluster-day"))
def test_observer_does_not_perturb_the_run(name):
    """Attaching observability must never change behaviour: both runs
    decide through the kernels, and the observed one only adds events."""
    plain = run_capacity(_hour(name))
    observed = run_capacity(_hour(name), observer=Observer())
    assert plain.canonical_json() == observed.canonical_json()


@pytest.mark.parametrize("name", (*SCENARIOS, "cluster-day"))
def test_kernel_cohorts_match_the_scalar_oracle(name, monkeypatch):
    """Every cohort row's target is the scalar Algorithm 1 decision on
    the same window, and the ring windows fill to the configured length
    (the kernel-vs-scalar parity check of the capacity layer)."""
    decide_cohort = batch.decide_cohort
    lengths = []

    def checked(window, cur, params, max_cores, slope_scale, quantile):
        targets = decide_cohort(window, cur, params, max_cores, slope_scale, quantile)
        for row, current, c_min, target in zip(
            window, cur.tolist(), params.c_min.tolist(), targets.tolist()
        ):
            config = CaasperConfig(c_min=c_min, max_cores=max_cores)
            oracle = ReactivePolicy(config).decide(
                current, CpuTrace(row), truncate_window=False
            )
            assert target == oracle.target_cores
            lengths.append(row.size)
        return targets

    monkeypatch.setattr(batch, "decide_cohort", checked)
    run_capacity(_hour(name))
    assert lengths and max(lengths) == CaasperConfig().window_minutes


class TestSeedSweep:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        name=st.sampled_from(SCENARIOS),
    )
    def test_replay_identity_over_seeds(self, seed, name):
        first = run_capacity(make_capacity_scenario(name, seed=seed, minutes=60))
        second = run_capacity(make_capacity_scenario(name, seed=seed, minutes=60))
        assert first.canonical_json() == second.canonical_json()
        assert first.seed == seed

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_different_seeds_change_workloads(self, seed):
        """Seeds actually steer the run (no accidentally-frozen RNG)."""
        a = run_capacity(make_capacity_scenario("hotspot-node", seed=seed, minutes=60))
        b = run_capacity(
            make_capacity_scenario("hotspot-node", seed=seed + 1, minutes=60)
        )
        assert a.metrics.total_slack != b.metrics.total_slack


def test_cluster_day_small_replay():
    """The benchmark scenario holds the same bar at a CI-sized scale."""
    first = run_capacity(
        make_capacity_scenario("cluster-day", seed=5, minutes=30, pods=40)
    )
    second = run_capacity(
        make_capacity_scenario("cluster-day", seed=5, minutes=30, pods=40)
    )
    assert first.canonical_json() == second.canonical_json()
    assert first.tenants == 40
