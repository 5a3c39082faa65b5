"""Properties of the declared settings, drawn from the declarations.

(a) Any draw inside every field's declared range either constructs or
raises :class:`ConfigError` from a cross-field rule — never a crash and
never a single-field error, which would mean a declaration and its
check disagree. (b) Every setting ``fleet``, ``plan`` and ``serve``
expose survives config → flags → ``parse_args`` → config; for
``fleet`` the flags are read off the artifact's header line, so line
1 rebuilds the run it describes.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.config import (
    BackendConfig,
    CheckpointConfig,
    ClusterConfig,
    DataConfig,
    FailureConfig,
    FleetConfig,
    ReaderConfig,
    StorageConfig,
    declared_settings,
)
from repro.errors import ConfigError
from repro.serving import ServingConfig
from repro.tools import cli

from config_strategies import settings_strategy

SINGLE_FIELD_ERROR = re.compile(r"unknown \w+ |\w+ must be [<>]=? ")

PROPERTY = settings(max_examples=80, deadline=None)


def _build(cls, kwargs, **extra):
    """``cls(**kwargs, **extra)``, or None on a cross-field ConfigError."""
    try:
        return cls(**kwargs, **extra)
    except ConfigError as exc:
        assert not SINGLE_FIELD_ERROR.match(str(exc)), str(exc)
        return None


# ModelConfig is left out: a drawn num_tables near SPAN would expand
# its default rows_per_table to that many entries.
@pytest.mark.parametrize(
    "cls",
    [
        FleetConfig, BackendConfig, ServingConfig, StorageConfig,
        CheckpointConfig, DataConfig, ReaderConfig, ClusterConfig,
        FailureConfig,
    ],
    ids=lambda cls: cls.__name__,
)
@PROPERTY
@given(data=st.data())
def test_drawn_settings_construct_or_break_a_cross_field_rule(cls, data):
    _build(cls, data.draw(settings_strategy(cls)))


@pytest.mark.parametrize(
    "cls", [FleetConfig, BackendConfig, ServingConfig],
    ids=lambda cls: cls.__name__,
)
def test_every_check_names_its_field(cls):
    """An out-of-range value fails with the one single-field form."""
    for name, spec in declared_settings(cls).items():
        for symbol, bound in spec.bounds:
            step = 1 if spec.type is int else 0.5
            bad = bound - step if symbol.startswith(">") else bound + step
            with pytest.raises(ConfigError, match=f"^{name} must be "):
                cls(**{name: bad})
        if spec.choices:
            with pytest.raises(ConfigError, match=f"^unknown {name} "):
                cls(**{name: "bogus"})


def _argv(command: str, *parts) -> list[str]:
    argv = [command]
    for config, names, defaults in parts:
        argv += cli.setting_argv(config, names, **defaults)
    return argv


def _parsed(argv: list[str], names) -> dict:
    return cli.settings(cli.build_parser().parse_args(argv), names)


HEADER = re.compile(
    r"== Fleet run: (\d+) jobs x (\d+) intervals "
    r"\(seed (-?\d+)(?:, (.*))?\) =="
)


def _rebuilt_from_header(config: FleetConfig) -> FleetConfig:
    """Parse line 1 of the fleet artifact back into a config."""
    jobs, intervals, seed, flags = HEADER.fullmatch(
        cli.fleet_header(config)
    ).groups()
    argv = ["fleet", "--jobs", jobs, "--intervals", intervals]
    argv += ["--seed", seed, *(flags or "").split()]
    return cli.fleet_config(cli.build_parser().parse_args(argv))


# About one fleet draw in six passes every cross-field rule.
@settings(PROPERTY, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    fleet=settings_strategy(FleetConfig, cli.FLEET_SETTINGS),
    backend=settings_strategy(BackendConfig, cli.FLEET_BACKEND_SETTINGS),
)
def test_fleet_header_rebuilds_the_drawn_config(fleet, backend):
    storage = StorageConfig(backend=BackendConfig(**backend))
    config = _build(FleetConfig, fleet, storage=storage)
    assume(config is not None)
    assert _rebuilt_from_header(config) == config


@pytest.mark.parametrize(
    "argv",
    [
        ["--backend", "s3like", "--failure-prob", "0.08"],
        ["--cache-tier"],
        ["--cache-tier", "--cache-bytes", "4096", "--cache-policy",
         "write_through"],
        ["--write-bandwidth", "150000", "--read-bandwidth", "3e5"],
        ["--jobs", "3", "--intervals", "2", "--seed", "5"],
    ],
    ids=" ".join,
)
def test_fleet_header_rebuilds_the_hand_written_flags(argv):
    config = cli.fleet_config(cli.build_parser().parse_args(["fleet", *argv]))
    assert config != cli.fleet_config(cli.build_parser().parse_args(["fleet"]))
    assert _rebuilt_from_header(config) == config


@PROPERTY
@given(plan=settings_strategy(FleetConfig, cli.PLAN_SETTINGS))
def test_plan_settings_round_trip_through_the_parser(plan):
    static = plan["max_concurrent_writes"] is not None
    config = _build(
        FleetConfig, plan, admission_mode="static" if static else "none"
    )
    assume(config is not None)
    argv = _argv("plan", (config, cli.PLAN_SETTINGS, {}))
    assert _parsed(argv, cli.PLAN_SETTINGS) == plan


@PROPERTY
@given(serve=settings_strategy(ServingConfig, cli.SERVE_SETTINGS))
def test_serve_settings_round_trip_through_the_parser(serve):
    config = _build(ServingConfig, serve)
    argv = _argv("serve", (config, cli.SERVE_SETTINGS, cli.SERVE_DEFAULTS))
    assert ServingConfig(**_parsed(argv, cli.SERVE_SETTINGS)) == config
