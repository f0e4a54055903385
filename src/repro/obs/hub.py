"""The per-run observability hub: one audit log + one sampler.

The :class:`~repro.service.service.JobService` builds a hub when
``BlazeConfig.obs.enabled`` and hangs it off ``cluster.obs`` *before*
the driver attaches the cache manager, so every decision layer can bind
the audit log in ``attach()``.  The hub is the only obs component that
touches wiring; everything it owns is a pure reader.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .audit import DecisionAudit
from .sampler import OccupancySampler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.cluster import Cluster


#: The decision audit log is a ring buffer: only the most recent this many
#: admission/eviction/ILP entries are retained.
AUDIT_RING_SIZE = 4096

#: The occupancy sampler stamps one sample per ``SAMPLE_INTERVAL_SECONDS``
#: of virtual time and keeps at most ``MAX_SAMPLES`` of them (long service
#: runs with sparse arrivals would otherwise grow the series without bound).
SAMPLE_INTERVAL_SECONDS = 1.0
MAX_SAMPLES = 50_000


class ObsHub:
    """Bundles the audit log and the sampler for one cluster run."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.audit = DecisionAudit(ring_size=AUDIT_RING_SIZE)
        self.sampler = OccupancySampler(
            cluster,
            interval_seconds=SAMPLE_INTERVAL_SECONDS,
            max_samples=MAX_SAMPLES,
        )
        cluster.clock.add_listener(self.sampler.on_advance)

    def bind_service(self, service) -> None:
        """Give the sampler a queue-depth source (the owning JobService)."""
        self.sampler.service = service
