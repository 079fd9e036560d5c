"""The compile service: one session-manager layer behind every frontend.

``repro.service`` extracts the orchestration that used to live in the
CLI — engine/store/tracer wiring, journals, teardown — into
:class:`CompileService`, then puts two thin frontends over it: the
``pld`` CLI calls it in-process, and the ``pld serve`` daemon exposes
it over TCP to many tenants at once (see DESIGN.md §13).  The
:mod:`~repro.service.overload` layer keeps the daemon alive under a
tenant flood: admission control, class-aware shedding, brownout and
zero-downtime drain (DESIGN.md §16).

The transport modules are not re-exported, so an in-process command
never imports them: the daemon is :mod:`repro.service.daemon` and its
client :mod:`repro.service.client`.
"""

from repro.service.core import (
    CompileRequest,
    CompileService,
    RequestOutcome,
    ServiceConfig,
    dedup_summary,
)
from repro.service.overload import (
    SHED_BATCH_FRACTION,
    SHED_INTERACTIVE_FRACTION,
    AdmissionController,
    TokenBucket,
)
from repro.service.scheduler import (
    AGING_ROUNDS,
    PRIORITY_CLASSES,
    RequestScheduler,
    ScheduledRequest,
)

__all__ = [
    "AGING_ROUNDS",
    "AdmissionController",
    "CompileRequest",
    "CompileService",
    "PRIORITY_CLASSES",
    "RequestOutcome",
    "RequestScheduler",
    "SHED_BATCH_FRACTION",
    "SHED_INTERACTIVE_FRACTION",
    "ScheduledRequest",
    "ServiceConfig",
    "TokenBucket",
    "dedup_summary",
]
