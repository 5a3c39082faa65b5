"""Every config field is read, and every range fails at construction.

(a) A field that no code in ``src/`` reads selects nothing: it can be
set, stored and compared, yet no run can tell its values apart. The
guard reads every attribute load in the package and asserts each
dataclass field of every config class appears among them.
(b) A value a run would only reject once it starts (a negative latency,
an empty row cache) is rejected by its config's declared range, with
the single-field message naming the field.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
from pathlib import Path

import pytest

import repro
from repro import config as config_module
from repro.config import ClusterConfig, FleetConfig, StorageConfig
from repro.errors import ConfigError
from repro.serving import ServingConfig

SRC = Path(repro.__file__).parent

CONFIG_CLASSES = [
    cls
    for cls in vars(config_module).values()
    if isinstance(cls, type)
    and dataclasses.is_dataclass(cls)
    and cls.__module__ == config_module.__name__
    and cls.__name__.endswith("Config")
] + [ServingConfig]


@functools.cache
def _attributes_read() -> frozenset[str]:
    """Names of every ``x.name`` load anywhere under ``src/repro``."""
    read = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                read.add(node.attr)
    return frozenset(read)


def test_config_classes_found():
    names = {cls.__name__ for cls in CONFIG_CLASSES}
    assert {"ExperimentConfig", "FleetConfig", "ServingConfig"} <= names


@pytest.mark.parametrize(
    "cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__
)
def test_every_config_field_is_read(cls):
    read = _attributes_read()
    unread = [f.name for f in dataclasses.fields(cls) if f.name not in read]
    assert unread == [], (
        f"{cls.__name__} fields nothing in src/ reads: {unread}"
    )


@pytest.mark.parametrize(
    "cls, name, value",
    [
        (ClusterConfig, "fabric_latency_s", -1.0),
        (ClusterConfig, "snapshot_fixed_overhead_s", -1.0),
        (ClusterConfig, "host_dram_bytes", -1),
        (ClusterConfig, "host_dram_bytes", 0),
        (StorageConfig, "latency_s", -1.0),
        (FleetConfig, "zipf_alpha", 0.0),
        (ServingConfig, "hot_rows_per_table", -1),
        (ServingConfig, "cache_rows", 0),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_out_of_range_value_fails_at_construction(cls, name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        cls(**{name: value})
