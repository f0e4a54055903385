"""Tenant identities and per-tenant memory-store quotas.

A :class:`TenantRegistry` hangs off the cluster (``cluster.tenancy``) so
the cache managers and the driver can consult the *currently executing*
tenant without plumbing it through every call.  Quotas bound a tenant's
aggregate memory-store footprint across the executor fleet.  The
fairness-tier rule every cache manager enforces them with lives here too:
:meth:`TenantRegistry.victim_tiers` ranks the residents of one insert and
:func:`take_tiered` picks victims in that rank (see ``docs/service.md``).

With no quotas configured and a single tenant, every check here is inert —
which is what keeps the legacy single-tenant path byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.blocks import Block
    from ..cluster.cluster import Cluster

DEFAULT_TENANT = "default"


class TenantRegistry:
    """Tracks tenants, their quotas, and the tenant currently executing."""

    def __init__(self, quotas: Mapping[str, float] | None = None) -> None:
        self.quotas: dict[str, float] = dict(quotas or {})
        #: tenant whose job the driver is currently executing; set by the
        #: service around each granted job, ``DEFAULT_TENANT`` otherwise.
        self.current_tenant: str = DEFAULT_TENANT
        #: owning cluster, bound by the service; needed only to resolve
        #: fractional quotas against the live fleet's memory capacity.
        self.cluster: "Cluster | None" = None

    @property
    def quotas_active(self) -> bool:
        return bool(self.quotas)

    def quota_of(self, tenant: str | None) -> float | None:
        """The tenant's aggregate memory quota in bytes, or None (unlimited).

        A configured quota in ``(0, 1]`` is *fractional*: it denotes that
        share of the **active** fleet's total memory capacity, so on an
        elastic cluster the byte budget grows and shrinks with the fleet.
        Anything above 1 is absolute bytes, as before.
        """
        if tenant is None:
            return None
        quota = self.quotas.get(tenant)
        if quota is None:
            return None
        if 0 < quota <= 1.0 and self.cluster is not None:
            return quota * self.cluster.active_memory_capacity_bytes()
        return quota

    def memory_used_by(self, cluster: "Cluster", tenant: str | None) -> float:
        """Aggregate memory-store bytes held by ``tenant`` across executors."""
        used = 0.0
        for executor in cluster.executors:
            for block in executor.bm.memory.blocks():
                if block.tenant == tenant:
                    used += block.size_bytes
        return used

    def would_exceed(
        self, cluster: "Cluster", tenant: str | None, incoming_bytes: float
    ) -> bool:
        """Would inserting ``incoming_bytes`` push ``tenant`` over quota?"""
        quota = self.quota_of(tenant)
        if quota is None:
            return False
        return self.memory_used_by(cluster, tenant) + incoming_bytes > quota

    def is_over_quota(self, cluster: "Cluster", tenant: str | None) -> bool:
        """Is the tenant's current footprint strictly above its quota?"""
        quota = self.quota_of(tenant)
        if quota is None:
            return False
        return self.memory_used_by(cluster, tenant) > quota

    def victim_tiers(
        self, cluster: "Cluster", tenant: str | None, incoming_bytes: float
    ) -> tuple[Callable[["Block"], int | None], float]:
        """The fairness terms of one insert by ``tenant``: ``(tier_of, own_need)``.

        Victims go over-quota tenants' blocks first (tier 0), then the
        inserter's own and ownerless blocks (1), then — only if the
        inserter stays within its quota — other within-quota tenants'
        blocks (2; ``None`` means protected).  ``own_need`` bytes of the
        inserter's own blocks must be displaced to keep it within quota
        after the insert.  All of it depends on the inserter and on live
        usage, hence per insert.
        """
        quota = self.quota_of(tenant)
        own_need = 0.0
        over_after = False
        if quota is not None:
            usage = self.memory_used_by(cluster, tenant)
            over_after = usage + incoming_bytes > quota
            own_need = max(0.0, usage + incoming_bytes - quota)
        over_quota: dict[str, bool] = {}

        def tier_of(block: "Block") -> int | None:
            if block.tenant == tenant or block.tenant is None:
                return 1
            over = over_quota.get(block.tenant)
            if over is None:
                over = over_quota[block.tenant] = self.is_over_quota(
                    cluster, block.tenant
                )
            if over:
                return 0
            return None if over_after else 2

        return tier_of, own_need


def take_tiered(
    blocks: Iterable["Block"],
    needed: float,
    incoming_rdd_id: int,
    tier_of: Callable[["Block"], int | None],
    tenant: str | None,
    own_need: float,
) -> tuple[list["Block"] | None, int]:
    """Greedy victim selection in ``(tier, order of blocks)`` order.

    ``blocks`` come in the caller's eviction order; one stable partition by
    ``tier_of`` (skipping the incoming dataset and protected blocks)
    yields the tiered order without a sort.  Victims accumulate until
    ``needed`` bytes overall and ``own_need`` bytes of ``tenant``'s own
    blocks are freed.  Returns ``(victims, scanned)``, victims ``None``
    when both cannot be met.
    """
    tiers: tuple[list["Block"], ...] = ([], [], [])
    scanned = 0
    for block in blocks:
        if block.rdd_id == incoming_rdd_id:
            continue
        scanned += 1
        tier = tier_of(block)
        if tier is not None:
            tiers[tier].append(block)
    victims: list["Block"] = []
    freed = own_freed = 0.0
    for block in tiers[0] + tiers[1] + tiers[2]:
        if freed >= needed and own_freed >= own_need:
            break
        victims.append(block)
        freed += block.size_bytes
        if block.tenant == tenant:
            own_freed += block.size_bytes
    if freed < needed or own_freed < own_need:
        return None, scanned
    return victims, scanned
