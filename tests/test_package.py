"""The package namespace loads each module on first read of one of its names."""

from __future__ import annotations

import sys

import pytest

import forecast_stability as fs
from forecast_stability import forecasters


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from forecast_stability import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(fs.__all__)
    assert len(fs.__all__) == 39


@pytest.mark.parametrize("name", fs.__all__)
def test_a_public_name_is_the_attribute_of_its_defining_module(name):
    obj = getattr(fs, name)
    # A union alias records no module of its own.
    module = "forecast_stability.forecasters" if name == "ForecasterKind" else obj.__module__
    assert module.startswith("forecast_stability.")
    assert getattr(sys.modules[module], name) is obj


def test_submodules_resolve_and_dir_lists_all():
    assert fs.harness is sys.modules["forecast_stability.harness"]
    assert fs.tabular is sys.modules["forecast_stability.tabular"]
    assert set(fs.__all__) | {"harness", "tabular", "__version__"} <= set(dir(fs))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        fs.no_such_name


def test_the_package_reads_a_replaced_binding_of_the_defining_module(monkeypatch):
    # Nothing is cached in the package, so a patched function shows through it.
    def replacement(*args):
        raise AssertionError("not called")

    monkeypatch.setattr(forecasters, "fit", replacement)
    assert fs.fit is replacement
