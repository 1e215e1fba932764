"""The package namespace: ``nvspin.<name>`` is looked up in the name's
module on every access (PEP 562), so ``import nvspin`` loads no submodule
and a binding replaced in a module shows through the package."""

import importlib

import pytest

import nvspin
from nvspin import experiments


@pytest.mark.parametrize("name", nvspin.__all__)
def test_public_name_is_its_module_object(name):
    obj = getattr(nvspin, name)
    if name in nvspin._EXPORTS:
        assert obj is importlib.import_module(f"nvspin.{name}")
        return
    module = importlib.import_module(f"nvspin.{nvspin._MODULE_OF[name]}")
    assert obj is getattr(module, name)
    # defined there, not bound there from another module
    assert getattr(obj, "__module__", module.__name__) == module.__name__


def test_dir_lists_every_public_name():
    assert set(nvspin.__all__) <= set(dir(nvspin))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nvspin.no_such_name  # noqa: B018
    assert not hasattr(nvspin, "cli_main")


def test_names_are_not_cached(monkeypatch):
    original = nvspin.exp_hahn

    def replacement(cfg, tau_grid_us):
        raise NotImplementedError

    monkeypatch.setattr(experiments, "exp_hahn", replacement)
    assert nvspin.exp_hahn is replacement
    monkeypatch.undo()
    assert nvspin.exp_hahn is original
    assert "exp_hahn" not in vars(nvspin)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from nvspin import *", namespace)
    assert {name: namespace[name] for name in nvspin.__all__} == {
        name: getattr(nvspin, name) for name in nvspin.__all__}
