"""The package exports: every name in each ``__all__`` resolves, once."""

import importlib

import pytest

PACKAGES = ["riemopt", "riemopt.manifolds", "riemopt.solvers", "riemopt.maxcut"]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    for entry in module.__all__:
        assert hasattr(module, entry), f"{name}.{entry}"


def test_retired_names_are_not_exported():
    import riemopt

    retired = {"CacheStore", "get_hessian", "shared_stopping", "export_slope_csv"}
    assert retired.isdisjoint(riemopt.__all__)
    assert "shared_stopping" not in importlib.import_module("riemopt.solvers").__all__
