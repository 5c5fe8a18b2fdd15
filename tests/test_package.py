import importlib
import pkgutil

import segdebias


def test_every_listed_export_resolves():
    names = ["segdebias"] + [
        f"segdebias.{m.name}"
        for m in pkgutil.iter_modules(segdebias.__path__)
        if m.name != "__main__"  # importing it runs the CLI
    ]
    stale = []
    for name in names:
        module = importlib.import_module(name)
        stale += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert stale == []
