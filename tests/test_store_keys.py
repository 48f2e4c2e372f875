"""Key model: determinism, epoch invalidation, and field coverage.

The store's correctness hinges on one invariant: a cache key changes
whenever *anything* that can change the result changes. The audit
classes below enforce it mechanically — every field of every dataclass
that participates in a key is perturbed one at a time, and the key must
move. A field added to ``SweepConfig``/``CaasperConfig`` without key
participation (the stale-result bug class) fails these tests the day it
lands.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from enum import Enum
from typing import Any, Mapping

import numpy as np
import pytest

from repro.core.config import CaasperConfig, RoundingMode
from repro.core.recommender import CaasperRecommender
from repro.errors import StoreError
from repro.sim.billing import BillingModel
from repro.sim.simulator import SimulatorConfig
from repro.sim.sweep import SweepConfig, default_recommender_factory
from repro.store import store_key
from repro.store.keys import (
    STORE_EPOCH,
    chaos_key,
    content_signature,
    simulate_key,
    trial_key,
)
from repro.trace import CpuTrace
from repro.workloads.traces import paper_trace


def _trace(name: str = "keys-trace", minutes: int = 120) -> CpuTrace:
    rng = np.random.default_rng(7)
    return CpuTrace(samples=rng.uniform(1.0, 4.0, minutes), name=name)


class TestContentSignature:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert content_signature(value) == value

    def test_numpy_scalars_become_python(self):
        assert content_signature(np.float64(2.5)) == 2.5
        assert content_signature(np.int64(3)) == 3

    def test_ndarray_signed_by_bytes_shape_dtype(self):
        a = np.array([1.0, 2.0, 3.0])
        sig = content_signature(a)
        assert sig["shape"] == [3]
        assert sig["dtype"] == "float64"
        assert sig == content_signature(a.copy())
        assert sig != content_signature(np.array([1.0, 2.0, 3.5]))

    def test_enum_signed_by_identity_and_value(self):
        assert content_signature(RoundingMode.FLOOR) != content_signature(
            RoundingMode.CEIL
        )

    def test_dataclass_enumerates_every_field(self):
        """The signature is reflective: adding a field widens the key."""
        for instance in (
            CaasperConfig(),
            SimulatorConfig(initial_cores=4),
            SweepConfig(),
            BillingModel(),
        ):
            sig = content_signature(instance)
            assert set(sig["fields"]) == {
                f.name for f in dataclasses.fields(instance)
            }

    def test_unsignable_value_raises(self):
        with pytest.raises(StoreError):
            content_signature(lambda: None)
        with pytest.raises(StoreError):
            content_signature(object())

    def test_mapping_keys_sorted_into_canonical_form(self):
        assert store_key("k", {"a": 1, "b": 2}) == store_key(
            "k", {"b": 2, "a": 1}
        )


class TestStoreKey:
    def test_same_inputs_same_key(self):
        assert store_key("simulate", {"x": 1}) == store_key("simulate", {"x": 1})

    def test_kind_namespaces_the_key(self):
        assert store_key("simulate", {"x": 1}) != store_key("trial", {"x": 1})

    def test_epoch_participates(self, monkeypatch):
        before = store_key("simulate", {"x": 1})
        monkeypatch.setattr("repro.store.keys.STORE_EPOCH", STORE_EPOCH + 1)
        assert store_key("simulate", {"x": 1}) != before

    def test_stable_across_processes_and_hash_seeds(self):
        """Keys derive from content, never ``hash()``: two interpreters
        with different ``PYTHONHASHSEED`` values agree byte-for-byte."""
        script = (
            "from repro.workloads.traces import paper_trace\n"
            "from repro.sim.sweep import SweepConfig, "
            "default_recommender_factory\n"
            "from repro.store.keys import simulate_key\n"
            "trace = paper_trace('fig3-square-wave')\n"
            "config = SweepConfig(min_cores=2)\n"
            "rec = default_recommender_factory(config=config)(trace)\n"
            "print(simulate_key(trace, rec, config.simulator_for(trace)))\n"
        )
        keys = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = os.pathsep.join(
                p
                for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH"))
                if p
            )
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert out.returncode == 0, out.stderr
            keys.append(out.stdout.strip())
        trace = paper_trace("fig3-square-wave")
        config = SweepConfig(min_cores=2)
        rec = default_recommender_factory(config=config)(trace)
        local = simulate_key(trace, rec, config.simulator_for(trace))
        assert keys == [local, local]

    def test_trace_name_and_samples_participate(self):
        trace = _trace()
        renamed = CpuTrace(samples=trace.samples, name="other")
        bumped = CpuTrace(samples=trace.samples * 1.5, name=trace.name)
        config = SimulatorConfig(initial_cores=4)
        base = trial_key(CaasperConfig(), trace, config)
        assert trial_key(CaasperConfig(), renamed, config) != base
        assert trial_key(CaasperConfig(), bumped, config) != base

    def test_chaos_key_depends_on_seed(self):
        trace = _trace()
        config = CaasperConfig()
        assert chaos_key(trace, "kitchen-sink", config, 1) != chaos_key(
            trace, "kitchen-sink", config, 2
        )
        assert chaos_key(trace, "kitchen-sink", config, 1) != chaos_key(
            trace, "stuck-rollout", config, 1
        )

    def test_unsignable_recommender_yields_no_key(self):
        """A recommender that cannot describe itself is uncacheable."""
        from repro.forecast import make_forecaster

        trace = _trace()
        custom = CaasperRecommender(
            CaasperConfig(proactive=True),
            forecaster=make_forecaster("naive"),
        )
        assert custom.store_payload() is None
        assert simulate_key(trace, custom, SimulatorConfig(initial_cores=4)) is None


# -- field-coverage audit ----------------------------------------------------
#
# The satellite guard against `default_recommender_factory`-style config
# drift: every dataclass field must perturb the cache key. Perturbed
# clones are built via ``object.__new__`` so ``__post_init__`` validation
# cannot veto a perturbation — key derivation reads fields, nothing else.


def _perturbed(value: Any) -> Any:
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.015625  # exact binary fraction: never a no-op
    if isinstance(value, str):
        return value + "-perturbed"
    if isinstance(value, Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    if isinstance(value, Mapping):
        return {**value, "__audit__": 1}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        first = dataclasses.fields(value)[0]
        return _clone_with(value, first.name, _perturbed(getattr(value, first.name)))
    if value is None:
        return 1
    raise AssertionError(
        f"no perturbation for {type(value).__name__}; extend _perturbed"
    )


def _clone_with(instance: Any, name: str, value: Any) -> Any:
    clone = object.__new__(type(instance))
    for f in dataclasses.fields(instance):
        object.__setattr__(clone, f.name, getattr(instance, f.name))
    object.__setattr__(clone, name, value)
    return clone


def _field_names(cls: type) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


class TestFieldCoverage:
    """Every config field participates in the key — audited per field."""

    @pytest.mark.parametrize("field", _field_names(CaasperConfig))
    def test_caasper_config_field_changes_trial_key(self, field):
        trace = _trace()
        simulator = SimulatorConfig(initial_cores=4)
        base = CaasperConfig()
        clone = _clone_with(base, field, _perturbed(getattr(base, field)))
        assert trial_key(clone, trace, simulator) != trial_key(
            base, trace, simulator
        )

    @pytest.mark.parametrize("field", _field_names(SimulatorConfig))
    def test_simulator_config_field_changes_simulate_key(self, field):
        trace = _trace()
        recommender = CaasperRecommender(CaasperConfig())
        base = SimulatorConfig(initial_cores=4)
        clone = _clone_with(base, field, _perturbed(getattr(base, field)))
        assert simulate_key(trace, recommender, clone) != simulate_key(
            trace, recommender, base
        )

    @pytest.mark.parametrize("field", _field_names(SweepConfig))
    def test_sweep_config_field_changes_signature(self, field):
        base = SweepConfig()
        clone = _clone_with(base, field, _perturbed(getattr(base, field)))
        assert store_key("audit", clone) != store_key("audit", base)

    @pytest.mark.parametrize("field", _field_names(BillingModel))
    def test_billing_model_field_changes_signature(self, field):
        base = BillingModel()
        clone = _clone_with(base, field, _perturbed(getattr(base, field)))
        assert store_key("audit", clone) != store_key("audit", base)


#: Valid (constructor-accepted) perturbations, one per SweepConfig field.
#: A new SweepConfig field fails the completeness assertion below until a
#: perturbation is added here — and the added perturbation then proves the
#: field actually flows into the per-trace simulate key.
_SWEEP_PERTURBATIONS: dict[str, Any] = {
    "min_cores": 2,
    "headroom_factor": 1.7,
    "decision_interval_minutes": 7,
    "resize_delay_minutes": 4,
    "billing": BillingModel(period_minutes=30),
}


class TestSweepConfigDrift:
    """End-to-end drift audit: `run_sweep`'s cache key is the per-trace
    simulate key derived through `default_recommender_factory` and
    `SweepConfig.simulator_for` — every SweepConfig knob must reach it."""

    def _sweep_trace_key(self, config: SweepConfig, trace: CpuTrace) -> str:
        recommender = default_recommender_factory(config=config)(trace)
        key = simulate_key(trace, recommender, config.simulator_for(trace))
        assert key is not None
        return key

    def test_perturbation_table_covers_every_field(self):
        assert set(_SWEEP_PERTURBATIONS) == set(_field_names(SweepConfig)), (
            "SweepConfig grew a field: add a perturbation to "
            "_SWEEP_PERTURBATIONS proving it reaches the cache key"
        )

    @pytest.mark.parametrize("field", sorted(_SWEEP_PERTURBATIONS))
    def test_field_reaches_the_simulate_key(self, field):
        trace = paper_trace("fig3-square-wave")
        base = SweepConfig()
        value = _SWEEP_PERTURBATIONS[field]
        assert value != getattr(base, field), f"perturbation for {field} is a no-op"
        perturbed = dataclasses.replace(base, **{field: value})
        assert self._sweep_trace_key(perturbed, trace) != self._sweep_trace_key(
            base, trace
        )
