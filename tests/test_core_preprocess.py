"""Tests for the Algorithm 1 window preprocessing step."""

import pytest

from repro.core.preprocess import preprocess_window
from repro.errors import ConfigError
from repro.trace import CpuTrace


class TestPreprocess:
    def test_truncates_to_trailing_window(self):
        trace = CpuTrace.from_values(range(100))
        window = preprocess_window(trace, window_minutes=10)
        assert window.minutes == 10
        assert window[0] == 90.0

    def test_short_trace_kept_whole(self):
        trace = CpuTrace.from_values([1.0, 2.0])
        assert preprocess_window(trace, window_minutes=10).minutes == 2

    def test_no_window_is_identity(self):
        trace = CpuTrace.from_values(range(10))
        assert preprocess_window(trace).minutes == 10

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigError):
            preprocess_window(CpuTrace.constant(1.0, 5), window_minutes=0)
