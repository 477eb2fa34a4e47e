import importlib

import pytest

import phasebound

MODULES = ["bounds", "capacity", "cli", "config", "errors", "estimation",
           "fock", "priors", "rate_distortion", "verification"]


@pytest.mark.parametrize("module", [None] + MODULES)
def test_every_exported_name_resolves(module):
    mod = phasebound if module is None else \
        importlib.import_module(f"phasebound.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
