"""Vectorized Algorithm 1 decision kernels (scalar-oracle replicas).

Two kernels evaluate exactly the arithmetic of
:meth:`repro.core.reactive.ReactivePolicy.decide`:

- :func:`decide_batch` — one decision for *many lanes at once*, as a
  handful of axis-1 array ops over a stacked ``(lanes, window)`` matrix.
- :func:`decide_lane` — one decision for a single lane, with the hot
  reductions (mean/std/skew/quantile) replaced by cheaper replications
  that are bit-for-bit equal to the numpy originals.

Byte identity with the scalar oracle is the contract, so every shortcut
is certified at import time by :func:`certify` against deterministic
probe arrays. When a probe disagrees on the installed numpy build, the
corresponding fast path is disabled and the kernel degrades to the exact
ops the oracle itself uses — slower, never different. Two facts are
relied on *unconditionally* because they are integer logic, not float
summation: ``searchsorted(sort(w), k)`` equals ``count(w < k)``, and a
boolean mean equals that count divided by ``n`` (integer-valued float64
sums are exact below 2**53).

One numpy/libm trap is load-bearing: ``np.log`` and ``math.log`` may
disagree in the last ulp, and the oracle (Eq. 3) uses ``math.log`` — so
both kernels evaluate the scaling-factor logarithm with ``math.log``,
element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LaneParams",
    "certify",
    "decide_batch",
    "decide_lane",
    "replications_certified",
    "axis_reductions_certified",
]

#: Rounding-mode codes used by the per-lane parameter vectors
#: (:class:`~repro.core.config.RoundingMode` ``FLOOR``/``NEAREST``/``CEIL``).
ROUND_FLOOR = 0
ROUND_NEAREST = 1
ROUND_CEIL = 2

_ROUND_CODES = {"floor": ROUND_FLOOR, "nearest": ROUND_NEAREST, "ceil": ROUND_CEIL}

#: Matches ``PvPCurve.is_flat_top`` / ``walk_down_target`` tolerance.
_FLAT_TOL = 1e-9
#: Matches ``slope_skewness``'s degenerate-spread cutoff.
_STD_EPS = 1e-12


def rounding_code(mode_value: str) -> int:
    """Map a :class:`RoundingMode` value string to a kernel code."""
    return _ROUND_CODES[mode_value]


@dataclass(frozen=True)
class LaneParams:
    """Per-lane Algorithm 1 thresholds as parallel arrays (SoA layout).

    One entry per lane of the batch; kernels gather the rows they need
    with a lane-index array. Fields mirror
    :class:`~repro.core.config.CaasperConfig` one-to-one.
    """

    s_high: np.ndarray
    s_low: np.ndarray
    m_high: np.ndarray
    m_low: np.ndarray
    sf_max_up: np.ndarray
    sf_max_down: np.ndarray
    c_min: np.ndarray
    scale_down_headroom: np.ndarray
    rounding: np.ndarray

    @classmethod
    def from_configs(cls, configs: list) -> "LaneParams":
        """Build the SoA view from one ``CaasperConfig`` per lane."""
        return cls(
            s_high=np.array([c.s_high for c in configs], dtype=float),
            s_low=np.array([c.s_low for c in configs], dtype=float),
            m_high=np.array([c.m_high for c in configs], dtype=float),
            m_low=np.array([c.m_low for c in configs], dtype=float),
            sf_max_up=np.array([float(c.sf_max_up) for c in configs], dtype=float),
            sf_max_down=np.array(
                [float(c.sf_max_down) for c in configs], dtype=float
            ),
            c_min=np.array([c.c_min for c in configs], dtype=np.int64),
            scale_down_headroom=np.array(
                [c.scale_down_headroom for c in configs], dtype=float
            ),
            rounding=np.array(
                [rounding_code(c.rounding.value) for c in configs], dtype=np.int64
            ),
        )

    def gather(self, idx: np.ndarray) -> "LaneParams":
        """The parameter rows of the selected lanes."""
        return LaneParams(
            s_high=self.s_high[idx],
            s_low=self.s_low[idx],
            m_high=self.m_high[idx],
            m_low=self.m_low[idx],
            sf_max_up=self.sf_max_up[idx],
            sf_max_down=self.sf_max_down[idx],
            c_min=self.c_min[idx],
            scale_down_headroom=self.scale_down_headroom[idx],
            rounding=self.rounding[idx],
        )


# -- batched kernel ----------------------------------------------------------


def decide_batch(
    window: np.ndarray,
    cur: np.ndarray,
    params: LaneParams,
    max_cores: int,
    slope_scale: float,
    quantile: float,
) -> np.ndarray:
    """Algorithm 1 for every row of ``window`` at once.

    The quantile is a manual lerp over the sorted rows when
    :func:`replications_certified`, ``np.quantile`` otherwise.

    Parameters
    ----------
    window:
        ``(lanes, n)`` usage windows — every lane of a cohort shares the
        window length, so the reductions vectorize along axis 1.
    cur:
        Current whole-core allocation per lane (int64).
    params:
        Per-lane thresholds, already gathered down to these lanes.
    max_cores, slope_scale, quantile:
        Cohort-uniform curve parameters.

    Returns
    -------
    np.ndarray
        Post-guardrail target cores per lane (int64), bit-for-bit equal
        to ``ReactivePolicy.decide(...).target_cores`` per lane.
    """
    lanes, n = window.shape
    rows = np.arange(lanes)
    cur_f = cur.astype(float)

    # PvP curve: perf(k) = fraction of samples strictly below k, for the
    # integer thresholds k = 1..max_cores. ``x < k`` iff ``floor(x) <=
    # k - 1`` (usage is non-negative and finite), so one histogram of
    # floor-buckets plus a cumulative sum yields every count at once —
    # pure integer logic, no certification needed. Samples at or above
    # max_cores land in the overflow bucket the cumsum never reaches.
    floors = np.clip(np.floor(window), 0.0, float(max_cores)).astype(np.int64)
    offsets = rows[:, None] * (max_cores + 1)
    hist = np.bincount(
        (floors + offsets).ravel(), minlength=lanes * (max_cores + 1)
    ).reshape(lanes, max_cores + 1)
    counts = hist[:, :max_cores].cumsum(axis=1)
    perf = counts / float(n)

    # Forward-difference slopes with the virtual perf(max+1) := 1.0 pad.
    padded = np.concatenate([perf, np.ones((lanes, 1))], axis=1)
    slopes = (padded[:, 1:] - padded[:, :-1]) * slope_scale

    # Slope and curve lookups at the (clamped) current allocation.
    cur_idx = np.clip(cur, 1, max_cores) - 1
    above_curve = cur > max_cores
    slope = np.where(above_curve, 0.0, slopes[rows, cur_idx])
    perf_at_cur = perf[rows, cur_idx]

    if _REPLICA_OK:
        # np.quantile's linear method, vectorized over the sorted rows,
        # including its gamma >= 0.5 rewrite (certified at import).
        sw = np.sort(window, axis=1)
        virtual = quantile * (n - 1)
        prev = math.floor(virtual)
        gamma = virtual - prev
        lo = sw[:, prev]
        hi = sw[:, prev + 1 if prev + 1 < n else n - 1]
        diff = hi - lo
        if gamma >= 0.5:
            q_cores = hi - diff * (1 - gamma)
        else:
            q_cores = lo + diff * gamma
    else:
        q_cores = np.quantile(window, quantile, axis=1)
    headroom_breached = q_cores >= (1.0 - params.m_high) * cur_f
    mostly_idle = q_cores <= params.m_low * cur_f
    flat_top = above_curve | ((cur >= 1) & (perf_at_cur >= 1.0 - _FLAT_TOL))

    scale_up = (slope >= params.s_high) | headroom_breached
    down_gate = (~scale_up) & (slope <= params.s_low) & (mostly_idle | flat_top)

    # Walk-down target: first candidate whose perf matches the reference
    # (perf is non-decreasing, so argmax of the boolean mask is the first
    # hit; all-False rows keep min(cur, max_cores), like the oracle loop).
    reference = np.where(above_curve, 1.0, perf_at_cur)
    meets = perf >= (reference - _FLAT_TOL)[:, None]
    walk_down = np.where(
        meets.any(axis=1), meets.argmax(axis=1) + 1, np.minimum(cur, max_cores)
    )
    buffered = np.ceil(
        walk_down * (1.0 + params.scale_down_headroom)
    ).astype(np.int64)
    gap = cur - np.minimum(buffered, cur)

    # Only lanes whose step is nonzero ever read the scaling factor, and
    # of those only lanes with a positive slope read the skewness. Both
    # are the kernel's costliest scalars — the cube is a per-element
    # correctly-rounded ``pow`` the oracle's bit pattern pins us to, and
    # the logarithm must be ``math.log`` (np.log is a different libm
    # path and can differ in the last ulp) — so each is evaluated only
    # on the rows that use it.
    acting = scale_up | (down_gate & (gap > 0))

    # Fisher–Pearson skewness of the slope distribution, floored at 1.
    skew = np.ones(lanes)
    need = acting & (slope > 0.0)
    if need.any():
        sub = slopes[need]
        mean = sub.mean(axis=1)
        std = sub.std(axis=1)
        degenerate = std < _STD_EPS
        std_safe = np.where(degenerate, 1.0, std)
        cubed = (((sub - mean[:, None]) / std_safe[:, None]) ** 3).mean(axis=1)
        skew[need] = np.where(degenerate, 1.0, np.maximum(cubed, 1.0))

    # Eq. 3, for the acting rows.
    raw_sf = np.zeros(lanes)
    if acting.any():
        argument = np.maximum(
            skew[acting] * np.maximum(slope[acting], 0.0)
            + params.c_min[acting],
            1.0,
        )
        raw_sf[acting] = [math.log(a) for a in argument.tolist()]

    required = q_cores / np.maximum(1.0 - params.m_high, 1e-9)
    step_up = np.maximum(raw_sf, required - cur_f)
    step_down = -np.maximum(raw_sf, gap.astype(float))
    step = np.where(
        scale_up, step_up, np.where(down_gate & (gap > 0), step_down, 0.0)
    )

    # Guardrails: cap, round per lane mode, clamp to [c_min, max_cores].
    step = np.where(step > 0, np.minimum(step, params.sf_max_up), step)
    step = np.where(step < 0, np.maximum(step, -params.sf_max_down), step)
    toward_zero = np.trunc(step)
    half_even = np.rint(step)
    away_zero = np.where(step >= 0, np.ceil(step), np.floor(step))
    delta = np.where(
        params.rounding == ROUND_FLOOR,
        toward_zero,
        np.where(params.rounding == ROUND_NEAREST, half_even, away_zero),
    ).astype(np.int64)
    return np.maximum(params.c_min, np.minimum(max_cores, cur + delta))


# -- single-lane kernel ------------------------------------------------------


def decide_lane(
    window: np.ndarray,
    cur: int,
    s_high: float,
    s_low: float,
    m_high: float,
    m_low: float,
    sf_max_up: float,
    sf_max_down: float,
    c_min: int,
    scale_down_headroom: float,
    rounding: int,
    max_cores: int,
    slope_scale: float,
    quantile: float,
    ks: np.ndarray,
) -> int:
    """Algorithm 1 for one lane, tuned for per-decision latency.

    When :func:`replications_certified`, the oracle's mean/std/skew/
    quantile reductions are swapped for certified bit-equal replications
    built on ``np.add.reduce`` and a manual linear interpolation over
    the already-sorted window. Otherwise the oracle's own numpy calls
    run — always exact, roughly 2× slower.
    """
    n = window.size
    sw = np.sort(window)
    counts = np.searchsorted(sw, ks, side="left")
    perf = counts / float(n)

    padded = np.empty(max_cores + 1)
    padded[:max_cores] = perf
    padded[max_cores] = 1.0
    slopes = (padded[1:] - padded[:max_cores]) * slope_scale

    if _REPLICA_OK:
        mean = np.add.reduce(slopes) / float(max_cores)
        centered = slopes - mean
        sq = centered * centered
        std = math.sqrt(np.add.reduce(sq) / float(max_cores))
        if std < _STD_EPS:
            skew = 1.0
        else:
            y = centered / std
            y = y**3
            skew = max(float(np.add.reduce(y) / float(max_cores)), 1.0)
        # np.quantile's linear method on the sorted window, including its
        # gamma >= 0.5 rewrite (certified bit-equal at import).
        virtual = quantile * (n - 1)
        prev = math.floor(virtual)
        gamma = virtual - prev
        lo = float(sw[prev])
        hi = float(sw[prev + 1 if prev + 1 < n else n - 1])
        diff = hi - lo
        q_cores = (hi - diff * (1 - gamma)) if gamma >= 0.5 else (lo + diff * gamma)
    else:
        std = float(slopes.std())
        if std < _STD_EPS:
            skew = 1.0
        else:
            mean = float(slopes.mean())
            skew = max(float(np.mean(((slopes - mean) / std) ** 3)), 1.0)
        q_cores = float(np.quantile(window, quantile))

    if cur > max_cores:
        slope = 0.0
    else:
        slope = float(slopes[max(cur, 1) - 1])
    raw_sf = math.log(max(skew * max(slope, 0.0) + c_min, 1.0))

    headroom_breached = q_cores >= (1.0 - m_high) * cur
    mostly_idle = q_cores <= m_low * cur
    if cur > max_cores:
        flat_top = True
    elif cur < 1:
        flat_top = False
    else:
        flat_top = perf[cur - 1] >= 1.0 - _FLAT_TOL

    if slope >= s_high or headroom_breached:
        required = q_cores / max(1.0 - m_high, 1e-9)
        step = max(raw_sf, required - cur)
    elif slope <= s_low and (mostly_idle or flat_top):
        reference = 1.0 if cur > max_cores else float(perf[max(cur, 1) - 1])
        # perf is non-decreasing: searchsorted finds the first candidate
        # meeting the reference, exactly like the oracle's linear scan.
        hit = int(np.searchsorted(perf, reference - _FLAT_TOL, side="left"))
        target = hit + 1 if hit < max_cores else min(cur, max_cores)
        buffered = math.ceil(target * (1.0 + scale_down_headroom))
        gap = cur - min(buffered, cur)
        step = -max(raw_sf, float(gap)) if gap > 0 else 0.0
    else:
        step = 0.0

    if step > 0:
        step = min(step, sf_max_up)
    elif step < 0:
        step = max(step, -sf_max_down)
    if rounding == ROUND_FLOOR:
        delta = math.floor(step) if step >= 0 else math.ceil(step)
    elif rounding == ROUND_NEAREST:
        delta = int(round(step))
    else:
        delta = math.ceil(step) if step >= 0 else math.floor(step)
    return max(c_min, min(max_cores, cur + delta))


# -- import-time certification ------------------------------------------------


def _probe_windows() -> list[np.ndarray]:
    """Deterministic arrays exercising the numeric shapes decisions see:
    smooth curves, repeated values, near-ties at core boundaries, and
    near-constant windows."""
    probes = []
    for n in (2, 3, 5, 17, 40, 100, 256):
        t = np.linspace(0.0, 3.0, n)
        probes.append(np.abs(np.sin(t * 7.3)) * 11.0)
        probes.append(np.repeat(np.abs(np.cos(t[: max(n // 4, 1)])) * 5.0, 4)[:n])
        probes.append(np.floor(t * 4.0) + 1e-12 * t)
        probes.append(np.full(n, 3.0) + np.where(t > 1.5, 1e-13, 0.0))
    return probes


_PROBE_QUANTILES = (0.5, 0.9, 0.95, 0.99, 1.0, 0.37)


def certify() -> tuple[bool, bool]:
    """Certify the fast paths against the oracle's numpy ops.

    Returns ``(replications_ok, axis_reductions_ok)``:

    - *replications*: the single-lane shortcuts (``add.reduce`` moments,
      manual quantile lerp) are bit-equal to ``np.mean``/``ndarray.std``/
      ``np.quantile`` on this build;
    - *axis reductions*: axis-1 reductions over a stacked matrix are
      bit-equal to the same reduction applied row by row.
    """
    probes = _probe_windows()
    replica_ok = True
    axis_ok = True

    for w in probes:
        n = w.size
        mean = float(np.mean(w))
        if np.add.reduce(w) / float(n) != mean:
            replica_ok = False
        centered = w - mean
        sq = centered * centered
        if math.sqrt(np.add.reduce(sq) / float(n)) != float(w.std()):
            replica_ok = False
        std = float(w.std())
        if std >= _STD_EPS:
            y = (w - mean) / std
            lhs = float(np.add.reduce(y**3) / float(n))
            rhs = float(np.mean(((w - mean) / std) ** 3))
            if lhs != rhs:
                replica_ok = False
        sw = np.sort(w)
        for q in _PROBE_QUANTILES:
            virtual = q * (n - 1)
            prev = math.floor(virtual)
            gamma = virtual - prev
            lo = float(sw[prev])
            hi = float(sw[prev + 1 if prev + 1 < n else n - 1])
            diff = hi - lo
            lerp = (
                (hi - diff * (1 - gamma)) if gamma >= 0.5 else (lo + diff * gamma)
            )
            if lerp != float(np.quantile(w, q)):
                replica_ok = False

    # Stack equal-length probes and compare axis-1 reductions to per-row.
    by_len: dict[int, list[np.ndarray]] = {}
    for w in probes:
        by_len.setdefault(w.size, []).append(w)
    for group in by_len.values():
        mat = np.stack(group)
        rows = [mat[i] for i in range(mat.shape[0])]
        if not np.array_equal(mat.mean(axis=1), np.array([r.mean() for r in rows])):
            axis_ok = False
        if not np.array_equal(mat.std(axis=1), np.array([r.std() for r in rows])):
            axis_ok = False
        mean_col = mat.mean(axis=1)[:, None]
        std_col = mat.std(axis=1)[:, None]
        if np.all(std_col >= _STD_EPS):
            lhs_m = (((mat - mean_col) / std_col) ** 3).mean(axis=1)
            rhs_m = np.array(
                [
                    float(np.mean(((r - float(r.mean())) / float(r.std())) ** 3))
                    for r in rows
                ]
            )
            if not np.array_equal(lhs_m, rhs_m):
                axis_ok = False
        for q in _PROBE_QUANTILES:
            if not np.array_equal(
                np.quantile(mat, q, axis=1),
                np.array([float(np.quantile(r, q)) for r in rows]),
            ):
                axis_ok = False

    return replica_ok, axis_ok


_REPLICA_OK, _AXIS_OK = certify()


def replications_certified() -> bool:
    """True when the single-lane fast reductions passed certification."""
    return _REPLICA_OK


def axis_reductions_certified() -> bool:
    """True when batched axis-1 reductions passed certification."""
    return _AXIS_OK
