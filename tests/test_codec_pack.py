"""Round trips of the store's binary payload (``pack`` / ``unpack``).

``pack`` writes the canonical JSON of the encoded result with its
arrays left out, then every array's float64 bytes in sorted-key walk
order; ``unpack`` reads them back through ``decode``. Whatever goes in
must come out with the same canonical JSON — the store's byte-identity
contract — and every array must be a fresh, writable buffer.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import CaasperConfig
from repro.errors import FleetError
from repro.fleet.codec import canonical_json, encode, pack, unpack
from repro.sim.metrics import SimulationMetrics
from repro.sim.results import ScalingEvent, SimulationResult
from repro.tuning.search import TrialResult

_SPECIALS = [float("nan"), 0.0, -0.0, float("inf"), float("-inf")]

float64_arrays = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=0, max_value=40),
    elements=st.floats() | st.sampled_from(_SPECIALS),
)
any_arrays = st.one_of(
    float64_arrays,
    arrays(dtype=np.float32, shape=st.integers(0, 12), elements=st.floats(width=32)),
    arrays(
        dtype=np.int64, shape=st.integers(0, 12), elements=st.integers(-(2**40), 2**40)
    ),
)
leaves = st.one_of(
    any_arrays,
    st.none(),
    st.booleans(),
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


def _arrays_in(value):
    """Every ndarray reachable through lists, dicts and dataclass fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays_in(item)
    elif hasattr(value, "__dataclass_fields__"):
        for name in value.__dataclass_fields__:
            yield from _arrays_in(getattr(value, name))


def _result(length: int, seed: int) -> SimulationResult:
    rng = np.random.default_rng(seed)
    demand = rng.uniform(0.0, 8.0, length)
    limits = np.floor(rng.uniform(1.0, 9.0, length))
    usage = np.minimum(demand, limits)
    return SimulationResult(
        name=f"r{seed}",
        demand=demand,
        usage=usage,
        limits=limits,
        events=(ScalingEvent(3, 5, 2, 4), ScalingEvent(9, 11, 4, 2)),
        metrics=SimulationMetrics(
            total_slack=1.5,
            total_insufficient_cpu=0.25,
            num_scalings=2,
            minutes=length,
            throttled_observations=3,
            price=12.0,
        ),
        detail={"note": "x", "window": np.arange(3.0)},
    )


def _check_round_trip(value) -> None:
    restored = unpack(pack(value))
    assert canonical_json(restored) == canonical_json(value)
    for array in _arrays_in(restored):
        assert array.dtype == np.float64
        assert array.flags.writeable and array.flags.owndata


class TestPackRoundTrip:
    @given(trees)
    @settings(max_examples=150, deadline=None)
    def test_any_tree_round_trips(self, value):
        _check_round_trip(value)

    @pytest.mark.parametrize("special", _SPECIALS, ids=repr)
    def test_special_floats_keep_their_bits(self, special):
        array = np.array([special, 1.0, special])
        restored = unpack(pack({"a": array}))["a"]
        assert restored.tobytes() == array.tobytes()  # -0.0 and NaN bits too

    def test_int_and_float32_arrays_come_back_as_float64(self):
        value = {"i": np.arange(5), "f": np.linspace(0, 1, 7, dtype=np.float32)}
        restored = unpack(pack(value))
        for name in value:
            assert restored[name].dtype == np.float64
            assert np.array_equal(restored[name], value[name].astype(float))
        _check_round_trip(value)

    def test_empty_arrays(self):
        _check_round_trip({"a": np.array([]), "b": [np.zeros(0), np.zeros(0)]})

    def test_arrays_nested_in_lists_dicts_and_results(self):
        value = {
            "results": [_result(50, 0), _result(0, 1)],
            "by_name": {"z": np.arange(2.0), "a": [np.arange(3.0), {"m": np.ones(1)}]},
            "trial": TrialResult(
                config=CaasperConfig(extra={"w": np.array([0.5, -0.0])}),
                total_slack=1.0,
                total_insufficient_cpu=0.0,
                num_scalings=1,
            ),
        }
        _check_round_trip(value)

    def test_payload_arrays_follow_sorted_key_order(self):
        """``detail`` and ``limits`` sort before ``usage``, whatever the
        field order: demand, detail.window, limits, usage."""
        result = _result(4, 2)
        skeleton, _, tail = pack(result).partition(b"\n")
        assert json.loads(skeleton)["limits"] == {"__fleet__": "ndarray", "n": 4}
        walk = [result.demand, result.detail["window"], result.limits, result.usage]
        assert tail == b"".join(array.astype("<f8").tobytes() for array in walk)

    def test_skeleton_is_canonical_json_of_encode_minus_values(self):
        value = {"b": np.arange(2.0), "a": 1}
        skeleton = pack(value).partition(b"\n")[0].decode()
        tree = encode(value)
        tree["b"] = {"__fleet__": "ndarray", "n": 2}
        assert skeleton == json.dumps(tree, sort_keys=True, separators=(",", ":"))

    def test_hits_share_no_buffer(self):
        data = pack({"a": np.arange(4.0), "b": np.arange(4.0)})
        first, second = unpack(data), unpack(data)
        first["a"][0] = 99.0
        assert second["a"][0] == 0.0
        assert not np.shares_memory(first["a"], first["b"])
        assert not np.shares_memory(first["a"], second["a"])

    def test_multi_dimensional_array_rejected(self):
        with pytest.raises(FleetError, match="2-D"):
            pack({"a": np.zeros((2, 2))})


class TestUnpackRejects:
    @pytest.mark.parametrize(
        "data, match",
        [
            (b'{"a":1}', "no skeleton line"),
            (b'{"__fleet__":"ndarray","n":2}\n' + bytes(8), "shorter"),
            (b'{"__fleet__":"ndarray","n":1}\n' + bytes(9), "after its last array"),
            (b'{"x":1}\n' + bytes(8), "after its last array"),
            (b'{"__fleet__":"ndarray","n":1.0}\n' + bytes(8), "bad packed array"),
            (b'{"__fleet__":"ndarray","n":true}\n' + bytes(8), "bad packed array"),
            (b'{"__fleet__":"no_such_tag"}\n', "unknown fleet codec tag"),
        ],
    )
    def test_malformed_payload_raises_fleet_error(self, data, match):
        with pytest.raises(FleetError, match=match):
            unpack(data)
