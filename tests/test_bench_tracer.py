"""The benchmark's tracer (``perfbench/layers.py``) wraps gelkit functions and
methods by attribute name.  A rename or deletion of one of them fails here,
instead of only when the benchmark runs with ``--trace 1``."""

import importlib.util
import sys
from pathlib import Path

import gelkit

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_install_wraps_every_target_and_uninstall_restores(monkeypatch):
    tracer = _tracer(monkeypatch)
    tracer.install(gelkit)
    replaced = list(tracer._replaced)
    try:
        assert replaced
        for owner, attr, original in replaced:
            assert vars(owner)[attr].__wrapped__ is original
            if isinstance(owner, type(gelkit)):  # a function: wrapped at home too
                home = vars(sys.modules[original.__module__])[original.__name__]
                assert home.__wrapped__ is original
        # an inactive tracer passes calls straight through
        assert gelkit.spectral.gelation(*gelkit.multiplicative()).t_g == 1.0
    finally:
        tracer.uninstall()
    for owner, attr, original in replaced:
        assert vars(owner)[attr] is original
