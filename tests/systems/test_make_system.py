"""The make_system factory and its override surface."""

import dataclasses

import pytest

from repro.caching.manager import SparkCacheManager
from repro.caching.policy import make_policy
from repro.caching.storage_level import StorageMode
from repro.config import BlazeConfig
from repro.core.udl import BlazeCacheManager
from repro.errors import ConfigError, PolicyError
from repro.systems import SYSTEMS, SystemSpec, make_system


def test_make_system_returns_the_preset_spec():
    spec = make_system("spark_mem_disk")
    assert spec is SYSTEMS["spark_mem_disk"]
    assert spec.kind == "spark"
    assert spec.policy == "lru"
    assert spec.storage_mode is StorageMode.MEM_AND_DISK


def test_specs_are_frozen_data():
    spec = make_system("blaze")
    assert spec.kind == "blaze"
    assert spec.needs_profile
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.label = "other"


def test_unknown_system_rejected():
    with pytest.raises(ConfigError):
        make_system("spark_quantum")


def test_spark_policy_override():
    spec = make_system("spark_mem_disk", policy="lfu")
    assert spec.policy == "lfu"
    assert SYSTEMS["spark_mem_disk"].policy == "lru", "preset untouched"
    manager = spec.build()
    assert isinstance(manager, SparkCacheManager)


def test_spark_unknown_policy_override_rejected():
    with pytest.raises(ConfigError):
        make_system("spark_mem_disk", policy="nope")


def test_spark_storage_mode_override():
    spec = make_system("spark_mem_disk", storage_mode=StorageMode.MEM_ONLY)
    assert spec.storage_mode is StorageMode.MEM_ONLY


def test_spark_extra_kwargs_reach_the_policy():
    spec = make_system("spark_lecar", learning_rate=0.3, ghost_capacity=16)
    assert spec.policy_kwargs == {"learning_rate": 0.3, "ghost_capacity": 16}
    manager = spec.build()
    assert isinstance(manager, SparkCacheManager)


def test_spark_bad_policy_kwargs_surface_as_policy_error():
    spec = make_system("spark_mem_disk", bogus_knob=1)
    with pytest.raises(PolicyError):
        spec.build()


def test_blaze_field_override():
    spec = make_system("blaze", ilp_enabled=False, ilp_horizon_jobs=3)
    assert spec.blaze_overrides["ilp_enabled"] is False
    manager = spec.build()
    assert isinstance(manager, BlazeCacheManager)
    assert manager.config.ilp_enabled is False
    assert manager.config.ilp_horizon_jobs == 3


@pytest.mark.parametrize(
    "system, rung",
    [("autocache", "autocache"), ("costaware", "costaware"), ("blaze", "full")],
)
def test_presets_build_their_rung(system, rung):
    assert make_system(system).build().config.rung == rung


def test_blaze_override_stacks_on_preset_overrides():
    spec = make_system("autocache", ilp_horizon_jobs=1)
    manager = spec.build()
    assert manager.config.rung == "autocache", "preset rung kept"
    assert manager.config.ilp_horizon_jobs == 1


def test_blaze_unknown_field_rejected():
    with pytest.raises(ConfigError):
        make_system("blaze", warp_drive=True)


def test_blaze_build_respects_caller_config():
    base = BlazeConfig(profiling_timeout_seconds=99.0)
    manager = make_system("blaze_mem_only").build(blaze_config=base)
    assert manager.config.profiling_timeout_seconds == 99.0
    assert manager.config.disk_enabled is False


def test_spec_validates_kind_and_blaze_fields():
    with pytest.raises(ConfigError):
        SystemSpec("x", "X", "alien")
    with pytest.raises(ConfigError):
        SystemSpec("x", "X", "blaze", blaze_overrides={"bogus": 1})


def test_make_cache_manager_shim_is_gone():
    # The DeprecationWarning shim was removed; make_system().build() is
    # the only construction path.
    import repro.systems as systems

    assert not hasattr(systems, "make_cache_manager")
    assert "make_cache_manager" not in systems.__all__


def test_make_policy_forwards_kwargs():
    policy = make_policy("lecar", learning_rate=0.25)
    assert policy.name == "lecar"
    assert policy._lr == 0.25


def test_make_policy_bad_kwargs_wrapped():
    with pytest.raises(PolicyError, match="lru"):
        make_policy("lru", not_a_knob=1)
    with pytest.raises(PolicyError):
        make_policy("does-not-exist")
