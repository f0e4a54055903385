"""Configuration validation."""

import dataclasses

import pytest

from repro.config import (
    BlazeConfig,
    ClusterConfig,
    DiskConfig,
    ElasticConfig,
    NetworkConfig,
    ObsConfig,
    RemoteMemoryConfig,
    ServiceConfig,
    paper_cluster,
    small_cluster,
)
from repro.dataflow.operators import SizeModel
from repro.errors import ConfigError


def test_defaults_valid():
    config = ClusterConfig()
    assert config.total_slots == config.num_executors * config.slots_per_executor
    assert config.total_memory_store_bytes > 0


def test_presets():
    assert small_cluster().num_executors == 2
    assert paper_cluster().num_executors == 10


def test_invalid_cluster_values():
    with pytest.raises(ConfigError):
        ClusterConfig(num_executors=0)
    with pytest.raises(ConfigError):
        ClusterConfig(memory_store_bytes=-1)
    with pytest.raises(ConfigError):
        ClusterConfig(shuffle_retention_jobs=-1)


def test_invalid_disk_and_network():
    with pytest.raises(ConfigError):
        DiskConfig(read_bytes_per_sec=0)
    with pytest.raises(ConfigError):
        NetworkConfig(bytes_per_sec=0)
    with pytest.raises(ConfigError):
        NetworkConfig(latency_seconds=-1)


def test_blaze_config_validation():
    with pytest.raises(ConfigError):
        BlazeConfig(ilp_horizon_jobs=0)
    with pytest.raises(ConfigError):
        BlazeConfig(profiling_sample_fraction=0.0)
    with pytest.raises(ConfigError):
        BlazeConfig(rung="ilp")


def test_blaze_config_flags_default_on():
    cfg = BlazeConfig()
    assert cfg.rung == "full"
    assert cfg.ilp_enabled and cfg.disk_enabled


def test_config_surface_is_pinned():
    """Every settable field, by name: a new knob must show up here."""
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(BlazeConfig) == [
        "profiling_timeout_seconds",
        "profiling_sample_fraction",
        "ilp_horizon_jobs",
        "rung",
        "ilp_enabled",
        "disk_enabled",
        "fault_max_task_retries",
        "sharded_engine",
        "num_shards",
        "shard_transport",
        "obs",
        "elastic",
    ]
    assert names(ClusterConfig) == [
        "num_executors",
        "slots_per_executor",
        "memory_store_bytes",
        "disk",
        "network",
        "shuffle_retention_jobs",
    ]
    assert names(ObsConfig) == ["enabled"]
    assert names(SizeModel) == ["bytes_per_element", "fixed_bytes", "ser_factor"]
    assert names(DiskConfig) == [
        "read_bytes_per_sec",
        "write_bytes_per_sec",
        "ser_seconds_per_byte",
        "deser_seconds_per_byte",
        "capacity_bytes",
    ]
    assert names(NetworkConfig) == ["bytes_per_sec", "latency_seconds"]
    assert names(RemoteMemoryConfig) == [
        "capacity_bytes",
        "read_bytes_per_sec",
        "write_bytes_per_sec",
        "ser_seconds_per_byte",
        "deser_seconds_per_byte",
        "latency_seconds",
    ]
    assert names(ElasticConfig) == [
        "min_executors", "max_executors", "remote_memory",
    ]
    assert names(ServiceConfig) == [
        "arrival_rate_per_sec",
        "inter_job_policy",
        "tenant_quotas",
        "dedup_enabled",
    ]
