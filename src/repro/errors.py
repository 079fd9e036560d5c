"""Exception hierarchy shared across the PLD reproduction.

Every package raises subclasses of :class:`PLDError` so callers can catch
framework failures without also swallowing programming errors such as
``TypeError``.  The hierarchy mirrors the major subsystems; see DESIGN.md
for the subsystem inventory.
"""

from __future__ import annotations


class PLDError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class DataflowError(PLDError):
    """Malformed dataflow graphs or illegal stream usage."""


class DeadlockError(DataflowError):
    """The Kahn-process-network execution cannot make progress.

    Carries the set of blocked operator names so callers (and tests) can
    report which part of the application stalled, plus an optional
    structured ``diagnostic`` dump (FIFO occupancies, in-flight packets,
    outstanding requests) that :func:`repro.core.reports.format_deadlock_report`
    renders for the developer.
    """

    def __init__(self, message: str, blocked: tuple = (),
                 diagnostic: dict = None):
        super().__init__(message)
        self.blocked = tuple(blocked)
        self.diagnostic = dict(diagnostic or {})


class HLSError(PLDError):
    """Errors in the operator IR or high-level-synthesis pass pipeline."""


class ScheduleError(HLSError):
    """The operation scheduler could not produce a legal schedule."""


class FabricError(PLDError):
    """Device-model or floorplan errors (unknown page, bad region...)."""


class CapacityError(FabricError):
    """An operator does not fit in the page it was assigned to."""

    def __init__(self, message: str, *, resource: str = "", need: int = 0,
                 have: int = 0):
        super().__init__(message)
        self.resource = resource
        self.need = need
        self.have = have


class PnRError(PLDError):
    """Placement or routing failed (unroutable, illegal placement...)."""


class NoCError(PLDError):
    """Linking-network configuration or simulation errors."""


class SoftcoreError(PLDError):
    """RISC-V compilation, assembly or instruction-set-simulator errors."""


class TrapError(SoftcoreError):
    """The simulated processor executed an illegal or unaligned access.

    ``injected`` is True when the trap came from a fault-injection plan
    rather than the program itself; the softcore's watchdog restart only
    retries injected (transient) traps.
    """

    def __init__(self, message: str, *, pc: int = 0,
                 injected: bool = False):
        super().__init__(message)
        self.pc = pc
        self.injected = injected


class PlatformError(PLDError):
    """Card / host-runtime errors (bad xclbin, DMA misuse...)."""


class FlowError(PLDError):
    """PLD toolflow errors (bad pragma, missing target, link failures)."""


class BuildError(FlowError):
    """The incremental build engine detected an inconsistency."""


class StoreError(BuildError):
    """The artifact store hit a serialization or integrity problem."""


class StaleFormatError(StoreError):
    """A stored artifact was written in another store format version."""


class TransportError(StoreError):
    """A remote-store request failed at the transport layer.

    Covers connection refusal/reset, request deadline expiry, a
    half-closed peer (short read mid-frame) and malformed frames.
    Carries the shard address and the operation so retry layers and
    reports can name the failure domain.
    """

    def __init__(self, message: str, *, shard: str = "", op: str = "",
                 attempt: int = 0):
        super().__init__(message)
        self.shard = shard
        self.op = op
        self.attempt = attempt


class FrameError(TransportError):
    """A remote-store frame failed to parse (corrupt or truncated).

    Distinct from :class:`TransportError` proper so tests can pin down
    *where* a byte stream went bad: framing errors mean the connection
    delivered something, just not a valid frame.
    """


class StoreUnavailableError(TransportError):
    """A shard stayed unreachable past its whole retry budget.

    The sharded client catches this internally and degrades to the
    local fallback store; it only escapes to callers that asked for
    strict (no-fallback) behaviour.
    """


class ServiceError(PLDError):
    """Compile-service errors (unknown ticket, closed service, a
    daemon rejecting a request).

    Raised by :mod:`repro.service` on the server side and re-raised by
    the service client when a daemon answers ``ok: false``; carries the
    server-reported error kind so clients can special-case deadline
    expiries vs. plain failures.
    """

    def __init__(self, message: str, *, kind: str = "",
                 retry_after: float = None, peers: tuple = ()):
        super().__init__(message)
        self.kind = kind
        #: Server-computed backoff hint in seconds (set on overload /
        #: draining rejections; clients add their own jitter).
        self.retry_after = retry_after
        #: Alternate daemon addresses a draining server suggests.
        self.peers = tuple(peers)


class OverloadedError(ServiceError):
    """The service shed this request to protect itself.

    Raised at *submit* — before the scheduler ever sees the request —
    when admission control rejects it: the global or per-tenant queue
    bound is exceeded, the tenant's token-bucket rate limit is dry, or
    a shed watermark was crossed for the request's priority class
    (``batch`` sheds first, ``interactive`` next, ``deadline`` last).
    ``retry_after`` is the server's drain estimate; well-behaved
    clients (``pld submit --wait``) back off by it plus jitter.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0,
                 reason: str = "", kind: str = "overloaded"):
        super().__init__(message, kind=kind, retry_after=retry_after)
        #: What tripped: "queue-full" | "tenant-queue-full" |
        #: "rate-limit" | "shed-batch" | "shed-interactive" | ...
        self.reason = reason


class DeadlineExceeded(PLDError):
    """A compile ran out of its wall-clock budget.

    Raised by the supervision layer (:mod:`repro.resilience`) when a
    :class:`~repro.resilience.Deadline` expires mid-build.  Carries the
    partial results — which steps/jobs already completed and which were
    pending — so the CLI can report what finished and tell the user to
    rerun with ``--resume`` instead of throwing the work away.
    """

    def __init__(self, message: str, *, seconds: float = 0.0,
                 elapsed: float = 0.0, completed: list = None,
                 pending: list = None):
        super().__init__(message)
        self.seconds = seconds
        self.elapsed = elapsed
        self.completed = list(completed or [])
        self.pending = list(pending or [])


class CircuitOpenError(BuildError):
    """A step's circuit breaker is open: it crashed too many times.

    The build engine raises this *instead of running the builder*, so a
    deterministically-crashing step fast-fails rather than burning a
    full retry/backoff ladder on every compile; the -O1 flow catches the
    open breaker upstream and degrades the operator to the -O0 softcore.
    """

    def __init__(self, message: str, *, step: str = "", failures: int = 0):
        super().__init__(message)
        self.step = step
        self.failures = failures


class FaultInjectionError(PLDError):
    """A fault-injection plan deliberately failed an operation.

    Raised at the injection site (a compile job, a bitstream load, a DMA
    transfer); recovery layers catch it and retry or degrade.  Carries
    the fault's domain/kind/target so recovery code and reports can tell
    injected faults from genuine bugs.
    """

    def __init__(self, message: str, *, domain: str = "", kind: str = "",
                 target: str = ""):
        super().__init__(message)
        self.domain = domain
        self.kind = kind
        self.target = target


class RetryExhaustedError(PLDError):
    """A retried operation failed on every allowed attempt.

    Carries the attempt count and the last underlying error so callers
    can decide whether to degrade (e.g. remap an operator to the -O0
    softcore) or surface the failure.
    """

    def __init__(self, message: str, *, attempts: int = 0,
                 last_error: Exception = None):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class LinkTimeoutError(NoCError):
    """A linked stream could not be delivered within the retry budget.

    Raised by the leaf retransmission layer when a packet stays unacked
    past ``max_retransmissions`` attempts; carries the stream endpoint
    so the diagnostic names the broken link.
    """

    def __init__(self, message: str, *, leaf: int = -1, port: int = -1,
                 seq: int = -1, attempts: int = 0):
        super().__init__(message)
        self.leaf = leaf
        self.port = port
        self.seq = seq
        self.attempts = attempts
