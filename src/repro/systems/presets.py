"""Preset system configurations (paper section 7.1, "Systems").

Each preset names one bar in the evaluation's figures:

================  =====================================================
key               paper name
================  =====================================================
spark_mem_only    MEM_ONLY Spark (LRU, recompute-on-miss)
spark_mem_disk    MEM+DISK Spark (LRU, spill-on-evict)
spark_alluxio     Spark + Alluxio (serialized tiered store)
spark_lrc         LRC on MEM+DISK Spark
spark_mrd         MRD on MEM+DISK Spark (with prefetching)
blaze             Blaze (profiling + autocache + cost model + ILP)
autocache         the +AutoCache ablation (Fig. 11)
costaware         the +CostAware ablation (Fig. 11)
lrc_mem_only      LRC on MEM_ONLY Spark (Fig. 12)
mrd_mem_only      MRD on MEM_ONLY Spark (Fig. 12)
blaze_mem_only    Blaze without disk support (Fig. 12)
blaze_no_profile  Blaze without the dependency-extraction phase (Fig. 13)
================  =====================================================

Additional conventional-policy presets (``spark_fifo`` etc.) cover the
policies the paper surveys but does not chart individually.

:func:`make_system` is the single construction entry point: it resolves a
preset, applies per-call overrides, and returns a :class:`SystemSpec` whose
:meth:`SystemSpec.build` constructs the cache manager.  (The legacy
``make_cache_manager`` helper, deprecated since the spec redesign, has
been removed — call ``make_system(name).build(...)``.)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from ..caching.manager import SparkCacheManager
from ..caching.policy import POLICY_REGISTRY, make_policy
from ..caching.storage_level import StorageMode
from ..config import BlazeConfig
from ..core.udl import BlazeCacheManager
from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cachemanager import CacheManager
    from ..core.profiler import LineageProfile

#: BlazeConfig field names accepted as ``make_system`` overrides for
#: blaze-kind systems, e.g. ``make_system("blaze", fault_max_task_retries=2)``.
#: Anything else raises :class:`ConfigError`; a faulted run is armed by
#: the ``fault_schedule`` passed to the context, not by the preset.
_BLAZE_FIELDS = frozenset(f.name for f in dataclasses.fields(BlazeConfig))


@dataclass(frozen=True)
class SystemSpec:
    """One system under test, declaratively.

    A spec is pure data — what kind of manager to build and with which
    knobs — so presets can be inspected, compared, and overridden without
    poking at opaque factory closures.  Call :meth:`build` to construct
    the actual cache manager.
    """

    key: str
    label: str
    #: "spark" (baseline ``SparkCacheManager``) or "blaze" (UDL).
    kind: str
    #: Spark-kind knobs; ignored for blaze-kind systems.
    storage_mode: StorageMode = StorageMode.MEM_AND_DISK
    policy: str = "lru"
    policy_kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: Blaze-kind knobs applied on top of the caller's ``BlazeConfig``.
    blaze_overrides: Mapping[str, Any] = field(default_factory=dict)
    #: whether the system runs the dependency-extraction phase first
    needs_profile: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("spark", "blaze"):
            raise ConfigError(f"system kind must be 'spark' or 'blaze', got {self.kind!r}")
        unknown = set(self.blaze_overrides) - _BLAZE_FIELDS
        if unknown:
            raise ConfigError(
                f"unknown BlazeConfig fields for system {self.key!r}: {sorted(unknown)}"
            )

    def build(
        self,
        profile: "LineageProfile | None" = None,
        blaze_config: BlazeConfig | None = None,
    ) -> "CacheManager":
        """Construct the cache manager this spec describes."""
        if self.kind == "spark":
            # Fail fast on bad policy kwargs (the manager itself only
            # constructs its per-executor policies at attach time).
            make_policy(self.policy, **dict(self.policy_kwargs))
            return SparkCacheManager(self.storage_mode, self.policy, **dict(self.policy_kwargs))
        base = blaze_config or BlazeConfig()
        config = dataclasses.replace(base, **dict(self.blaze_overrides))
        return BlazeCacheManager(config=config, profile=profile)


def _spark(key: str, label: str, mode: StorageMode, policy: str) -> SystemSpec:
    return SystemSpec(key, label, "spark", storage_mode=mode, policy=policy)


def _blaze(key: str, label: str, needs_profile: bool = True, **overrides) -> SystemSpec:
    return SystemSpec(
        key, label, "blaze", blaze_overrides=overrides, needs_profile=needs_profile
    )


SYSTEMS: dict[str, SystemSpec] = {
    spec.key: spec
    for spec in [
        _spark("spark_mem_only", "Spark (MEM)", StorageMode.MEM_ONLY, "lru"),
        _spark("spark_mem_disk", "Spark (MEM+DISK)", StorageMode.MEM_AND_DISK, "lru"),
        _spark("spark_alluxio", "Spark+Alluxio", StorageMode.ALLUXIO, "lru"),
        _spark("spark_lrc", "LRC", StorageMode.MEM_AND_DISK, "lrc"),
        _spark("spark_mrd", "MRD", StorageMode.MEM_AND_DISK, "mrd"),
        _spark("spark_fifo", "FIFO", StorageMode.MEM_AND_DISK, "fifo"),
        _spark("spark_lfu", "LFU", StorageMode.MEM_AND_DISK, "lfu"),
        _spark("spark_lfuda", "LFUDA", StorageMode.MEM_AND_DISK, "lfuda"),
        _spark("spark_gdwheel", "GDWheel", StorageMode.MEM_AND_DISK, "gdwheel"),
        _spark("spark_tinylfu", "TinyLFU", StorageMode.MEM_AND_DISK, "tinylfu"),
        _spark("spark_lecar", "LeCaR", StorageMode.MEM_AND_DISK, "lecar"),
        _blaze("blaze", "Blaze"),
        _blaze("autocache", "+AutoCache", rung="autocache"),
        _blaze("costaware", "+CostAware", rung="costaware"),
        _spark("lrc_mem_only", "LRC (MEM)", StorageMode.MEM_ONLY, "lrc"),
        _spark("mrd_mem_only", "MRD (MEM)", StorageMode.MEM_ONLY, "mrd"),
        _blaze("blaze_mem_only", "Blaze (MEM)", disk_enabled=False),
        _blaze("blaze_no_profile", "Blaze w/o Profiling", needs_profile=False),
    ]
}


def make_system(name: str, **overrides) -> SystemSpec:
    """Resolve a preset and apply per-call overrides, returning the spec.

    Spark-kind systems accept ``policy=``, ``storage_mode=`` and any extra
    keyword argument, which is forwarded to the policy constructor::

        make_system("spark_lecar", learning_rate=0.3)
        make_system("spark_mem_disk", policy="lfu")

    Blaze-kind systems accept any :class:`~repro.config.BlazeConfig` field::

        make_system("blaze", ilp_horizon_jobs=3)

    Unknown system names and unknown blaze fields raise
    :class:`~repro.errors.ConfigError`; bad policy kwargs surface as
    :class:`~repro.errors.PolicyError` at :meth:`SystemSpec.build` time.
    """
    spec = SYSTEMS.get(name)
    if spec is None:
        raise ConfigError(f"unknown system {name!r}; known: {sorted(SYSTEMS)}")
    if not overrides:
        return spec
    if spec.kind == "spark":
        changes: dict[str, Any] = {}
        if "policy" in overrides:
            policy = overrides.pop("policy")
            if policy not in POLICY_REGISTRY:
                raise ConfigError(
                    f"unknown policy {policy!r}; known: {sorted(POLICY_REGISTRY)}"
                )
            changes["policy"] = policy
        if "storage_mode" in overrides:
            mode = overrides.pop("storage_mode")
            if not isinstance(mode, StorageMode):
                mode = StorageMode(mode)
            changes["storage_mode"] = mode
        if overrides:  # remaining kwargs go to the policy constructor
            changes["policy_kwargs"] = {**spec.policy_kwargs, **overrides}
        return dataclasses.replace(spec, **changes)
    unknown = set(overrides) - _BLAZE_FIELDS
    if unknown:
        raise ConfigError(
            f"unknown BlazeConfig fields for system {name!r}: {sorted(unknown)}; "
            f"known: {sorted(_BLAZE_FIELDS)}"
        )
    return dataclasses.replace(
        spec, blaze_overrides={**spec.blaze_overrides, **overrides}
    )


def system_label(key: str) -> str:
    spec = SYSTEMS.get(key)
    if spec is None:
        raise ConfigError(f"unknown system {key!r}")
    return spec.label
