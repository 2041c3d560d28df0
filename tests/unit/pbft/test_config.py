"""PBFT configuration validation and derived quantities."""

import pytest

from repro.common.errors import ConfigError
from repro.pbft.config import LIBRARY_PAGES, PbftConfig


def test_group_sizes():
    config = PbftConfig(f=1)
    assert config.n == 4
    assert config.quorum == 3
    assert config.weak_quorum == 2
    config = PbftConfig(f=2)
    assert config.n == 7
    assert config.quorum == 5
    assert config.weak_quorum == 3


def test_all_big_threshold_zero_marks_everything_big():
    config = PbftConfig(big_request_threshold=0)
    assert config.is_big(0) and config.is_big(10_000)


def test_none_threshold_disables_big_handling():
    config = PbftConfig(big_request_threshold=None)
    assert not config.is_big(1_000_000)


def test_mid_threshold():
    config = PbftConfig(big_request_threshold=4096)
    assert not config.is_big(4095)
    assert config.is_big(4096)


def test_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        PbftConfig(f=0).validate()
    with pytest.raises(ConfigError):
        PbftConfig(checkpoint_interval=0).validate()
    with pytest.raises(ConfigError):
        PbftConfig(checkpoint_interval=100, log_window=150).validate()
    with pytest.raises(ConfigError):
        PbftConfig(max_batch=0).validate()
    with pytest.raises(ConfigError):
        PbftConfig(state_pages=LIBRARY_PAGES).validate()


def test_with_options_makes_modified_copy():
    base = PbftConfig()
    changed = base.with_options(use_macs=False, batching=False)
    assert base.use_macs and not changed.use_macs
    assert base.batching and not changed.batching
    assert changed.f == base.f


def test_costs_bytes_cost():
    config = PbftConfig()
    assert config.costs.bytes_cost(0) == 0
    assert config.costs.bytes_cost(1000) > 0


def test_every_config_field_is_read():
    """A field nothing reads is a setting that changes nothing: each one
    must be read as an attribute somewhere in the package — validating a
    value is not using it."""
    import ast
    import dataclasses
    from pathlib import Path

    import repro
    from repro.pbft import config as config_module
    from repro.pbft.config import CostModel

    read = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text())
        if path == Path(config_module.__file__):
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "validate":
                    node.body = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
    fields = [
        f"{cls.__name__}.{field.name}"
        for cls in (PbftConfig, CostModel)
        for field in dataclasses.fields(cls)
    ]
    assert [name for name in fields if name.split(".")[1] not in read] == []
