"""Every public name a ``repro`` module exports actually exists.

``from module import *`` raises ``AttributeError`` on the first name in
``__all__`` that the module does not define, so a stale entry left behind
by a rename breaks star imports of that module.
"""

import importlib
import pkgutil

import repro


def test_every_all_entry_resolves():
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        missing.extend(
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        )
    assert missing == []
