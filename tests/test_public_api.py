import importlib
import pkgutil

import bplab
from bplab.hermitian import sample_P_many
from bplab.nonhermitian import sample_L_many


def test_every_exported_name_resolves():
    modules = [info.name for info in pkgutil.iter_modules(bplab.__path__)]
    assert "hermitian" in modules and "nonhermitian" in modules
    for name in modules:
        module = importlib.import_module(f"bplab.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], name
    # one entry point per model, the one the README documents
    assert bplab.sample_P_many is sample_P_many and bplab.sample_L_many is sample_L_many
    assert not hasattr(bplab, "sample_P") and not hasattr(bplab, "sample_L")
