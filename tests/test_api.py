"""The public surface: every exported name resolves, and the test oracles
are not shipped in the package."""

import importlib

import pytest

import ndlp

MOVED_TO_TESTS = ["DetRule", "det_least_model", "det_stable", "det_wf", "embed"]


@pytest.mark.parametrize("name", ndlp.__all__)
def test_exported_name_resolves(name):
    assert hasattr(ndlp, name)


@pytest.mark.parametrize("name", MOVED_TO_TESTS + ["ReductProgram"])
def test_removed_name_is_not_exported(name):
    assert name not in ndlp.__all__
    assert not hasattr(ndlp, name)


def test_deterministic_oracle_is_not_a_package_module():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("ndlp.detlp")
