"""Kubernetes-like cluster substrate (§2).

A discrete-minute model of the pieces the paper's autoscaling loop runs
on: nodes with allocatable CPU, pods with ``requests``/``limits``
enforced cgroup-style, a bin-packing scheduler, stateful sets updated by
a rolling-update operator (primary last, §3.1), and the scaler +
control loop of Figure 1 (whose metrics server is the observer's
registry).

The model is deliberately faithful where the autoscaler can tell the
difference (capping, resize latency, restart ordering, failovers) and
simple where it cannot (no network, no storage besides re-sync timing).
"""

from .cluster import Cluster
from .controller import ControlLoop, ControlLoopConfig
from .events import Event, EventKind, EventLog
from .cgroup import enforce_cpu
from .node import Node
from .operator_ import DbOperator, RollingUpdate
from .pod import Container, Pod, PodPhase
from .resilience import ResilienceConfig, ResilientControlLoop, RetryPolicy
from .resources import ResourceSpec
from .scaler import Scaler, ScalerConfig
from .scheduler import Scheduler
from .statefulset import StatefulSet

__all__ = [
    "Cluster",
    "ControlLoop",
    "ControlLoopConfig",
    "Event",
    "EventKind",
    "EventLog",
    "enforce_cpu",
    "Node",
    "DbOperator",
    "RollingUpdate",
    "Container",
    "Pod",
    "PodPhase",
    "ResilienceConfig",
    "ResilientControlLoop",
    "RetryPolicy",
    "ResourceSpec",
    "Scaler",
    "ScalerConfig",
    "Scheduler",
    "StatefulSet",
]
