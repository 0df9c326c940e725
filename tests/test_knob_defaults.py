"""The default of every serving and observability knob, in one place.

Each knob is a plain constructor or function default; this pins the
values a caller gets without passing anything.
"""

from __future__ import annotations

from repro.matrices import laplace2d
from repro.obs import (
    HealthMonitor,
    Observability,
    SloPolicy,
    default_registry,
    disable_tracing,
    enable_tracing,
)
from repro.serve import OperatorSession, SolverFarm


def test_every_knob_default():
    with OperatorSession(laplace2d(4), restart=4) as session:
        assert session.max_block == 8
        assert session.scheduler.max_wait_seconds == 2.0e-3
        assert session.policy.mode == "auto"

    with SolverFarm() as farm:
        assert farm.registry.max_sessions == 8
        assert farm.registry.max_bytes is None  # no byte budget
        assert farm.queue_depth == 64
        assert farm.fairness == "weighted"
        assert farm.workers == 2
        assert farm.max_wait_seconds == 2.0e-3
        assert farm.breaker_threshold == 3
        assert farm.breaker_cooldown_ms == 250.0

    obs = Observability()
    assert obs.tracer is None
    assert obs.registry is default_registry()

    try:
        tracer = enable_tracing()
        assert tracer._capacity == 65536
        assert tracer.sampler is None
    finally:
        disable_tracing()

    assert HealthMonitor().slo.policy == SloPolicy(
        0.999, 0.0, 0.0, 300.0, 3600.0, 14.4, 6.0
    )
