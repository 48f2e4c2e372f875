"""Node-local CPU contention: fair-share water-filling.

When co-located pods' (limit-capped) demands sum past a node's
effective allocatable CPU, the completely-fair scheduler does not serve
them proportionally — small consumers get their full ask while large
ones split what remains. That is max-min fairness, computed here by
progressive filling: at each step every unsatisfied pod is offered an
equal share of the remaining capacity; pods asking less than the share
are fully served and their leftovers recycle into the pool.

Conservation is the load-bearing invariant: the delivered total equals
``min(sum(demands), capacity)`` — throttling moves CPU between pods'
ledgers, it never creates or destroys it. The delivered vector is what
each tenant's decision window *holds*, so node contention feeds straight
back into the K metric (throttled usage reads as slack) — the
corrupted-signal loop of §2.2, closed at cluster scale.
"""

from __future__ import annotations

from ..errors import CapacityError

__all__ = ["water_fill"]

#: Demand totals within this of capacity are "fits"; guards float dust.
_EPSILON = 1e-9


def water_fill(demands: list[float], capacity_cores: float) -> list[float]:
    """Max-min fair delivery of ``demands`` under ``capacity_cores``.

    Returns one delivered value per demand, order-preserving, with
    ``0 <= delivered[i] <= demands[i]`` and
    ``sum(delivered) == min(sum(demands), capacity)`` (to float dust).
    """
    if capacity_cores < 0:
        raise CapacityError(
            f"capacity_cores must be >= 0, got {capacity_cores}"
        )
    for demand in demands:
        if demand < 0:
            raise CapacityError(f"demands must be >= 0, got {demand}")
    total = sum(demands)
    if total <= capacity_cores + _EPSILON:
        return list(demands)
    delivered = [0.0] * len(demands)
    # Fill smallest demands first: each round's equal share can only
    # grow, so once a demand fits under the share every later one might.
    order = sorted(range(len(demands)), key=lambda i: (demands[i], i))
    remaining = capacity_cores
    unsatisfied = len(order)
    for rank, i in enumerate(order):
        share = remaining / unsatisfied
        take = demands[i] if demands[i] <= share else share
        delivered[i] = take
        remaining -= take
        unsatisfied -= 1
        if remaining <= _EPSILON:
            for j in order[rank + 1 :]:
                delivered[j] = 0.0
            break
    return delivered
