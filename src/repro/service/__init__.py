"""Long-running admission service over the planner API.

The :class:`~repro.service.admission.AdmissionService` turns a one-shot
planner into a request-path component: arrivals enter a bounded queue
with explicit backpressure, timeout, and reject-on-overload policies; an
idle arrival is dispatched at once, and queries that queue up behind a
solve coalesce into one batch admission (one MILP build + solve per
batch), decided and deployed on one worker thread.  The whole path is
instrumented through the lightweight
:mod:`~repro.service.metrics` layer (counters, gauges, log-bucketed
latency histograms, JSON export).
"""

from .metrics import Counter, Gauge, LatencyHistogram, MetricsRegistry
from .admission import (
    AdmissionService,
    AdmissionTicket,
    AdmissionTimeout,
    OverloadPolicy,
    QueueFullError,
    ServiceClosed,
    ServiceConfig,
)

__all__ = [
    "AdmissionService",
    "AdmissionTicket",
    "AdmissionTimeout",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "OverloadPolicy",
    "QueueFullError",
    "ServiceClosed",
    "ServiceConfig",
]
