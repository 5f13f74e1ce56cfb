"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type.  The machine simulator raises *typed* errors for
each way a schedule can be illegal in the two-level memory model of the
paper; tests assert on these types (failure-injection suite).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An algorithm or machine was configured with invalid parameters.

    Examples: a fast memory too small for the requested tile size, a block
    size that does not satisfy an algorithm's divisibility requirement, or a
    non-positive matrix dimension.
    """


class StaleFormatError(ConfigurationError):
    """A container was written in a format version this build does not read.

    The serve store counts such an object as stale (``serve.store.stale``),
    not corrupt, and reads it as a miss; the next put rewrites it in the
    current format.
    """


class MachineError(ReproError):
    """Base class for errors raised by the two-level machine simulator."""


class CapacityError(MachineError):
    """A load would exceed the fast memory capacity ``S``.

    The two-level model *forbids* holding more than ``S`` elements in fast
    memory; any schedule triggering this error is invalid in the model.
    """

    def __init__(self, requested: int, occupancy: int, capacity: int):
        self.requested = int(requested)
        self.occupancy = int(occupancy)
        self.capacity = int(capacity)
        super().__init__(
            f"load of {requested} element(s) would raise occupancy "
            f"{occupancy} -> {occupancy + requested} beyond capacity S={capacity}"
        )


class ResidencyError(MachineError):
    """A compute op touched (or an evict removed) non-resident data.

    In the model all operands of a computation must be in fast memory; the
    executor checks every declared read/write region before applying an op.
    """


class RedundantLoadError(MachineError):
    """A load targeted elements that are already resident.

    Reloading resident data would only waste I/O, and none of the schedules
    in this library ever does it, so both machine configurations reject it,
    and the certifier reports it as RPS102.
    """


class ScheduleError(ReproError):
    """An op stream is structurally invalid (machine-independent check).

    Raised by :mod:`repro.sched.validate`, e.g. for an op whose read regions
    were never loaded, or an evict of a region that is not resident at that
    point of the stream.

    Carries the structured :class:`repro.check.findings.Finding` behind the
    message (when the raiser produced one) as ``finding``, so the CLI and
    tests can report *which* op broke *which* invariant without parsing
    the message text.
    """

    def __init__(self, message: str, *, finding=None):
        super().__init__(message)
        self.finding = finding


class VerificationError(ReproError):
    """A numeric result failed verification against the reference kernel."""
