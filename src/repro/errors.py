"""Exception hierarchy for the Blaze reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """Raised when a configuration value is invalid or inconsistent."""


class DataflowError(ReproError):
    """Raised for invalid dataflow graph construction or execution."""


class ShuffleError(DataflowError):
    """Raised when shuffle data is missing or inconsistent."""


class SchedulerError(ReproError):
    """Raised when the task scheduler reaches an invalid state."""


class StorageError(ReproError):
    """Raised for invalid block store operations."""


class PolicyError(ReproError):
    """Raised when an eviction policy misbehaves (e.g. returns bad victims)."""


class SolverError(ReproError):
    """Raised when the ILP solver cannot produce a feasible solution."""


class ProfilingError(ReproError):
    """Raised when the dependency-extraction phase fails irrecoverably."""


class WorkloadError(ReproError):
    """Raised for invalid workload parameters."""


class FaultError(ReproError):
    """Raised when injected faults exhaust the engine's bounded recovery
    (e.g. a task fails more than ``fault_max_task_retries`` times)."""


class ServiceError(ReproError):
    """Raised for invalid job-service operations (bad submissions, reading
    a handle before the service drained it, running a stopped service)."""
