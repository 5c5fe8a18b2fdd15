import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import segdebias

ROOT = Path(__file__).resolve().parent.parent


def _modules():
    return [
        f"segdebias.{m.name}"
        for m in pkgutil.iter_modules(segdebias.__path__)
        if m.name != "__main__"  # importing it runs the CLI
    ]


def test_every_listed_export_resolves():
    stale = []
    for name in ["segdebias"] + _modules():
        module = importlib.import_module(name)
        stale += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert stale == []


def _loaded_names(node) -> set[str]:
    """Identifiers a subtree reads, as bare names or as attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
    return out


def test_every_export_has_a_caller_outside_the_tests():
    """Each `__all__` name of a segdebias module is read by the library, the
    scripts or the benchmark.  A read inside the definition of an export that
    is itself unread does not count, so a chain of unused helpers is flagged
    whole."""
    exports = {}  # name -> the modules that export it
    for name in _modules():
        for export in getattr(importlib.import_module(name), "__all__", ()):
            exports.setdefault(export, set()).add(name)

    sources = [p for p in (ROOT / "src" / "segdebias").glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    # (owner, names read): the owner is the export a top-level definition of the
    # package defines, or None for code that always runs or is not exported
    reads = []
    for path in sources:
        module = f"segdebias.{path.stem}" if path.parent.name == "segdebias" else None
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)
            if module is None or module not in exports.get(owner, ()):
                owner = None
            reads.append((owner, _loaded_names(stmt)))

    live: set[str] = set()
    changed = True
    while changed:
        changed = False
        for owner, names in reads:
            if owner is not None and owner not in live:
                continue
            for export in (names & exports.keys()) - live - {owner}:
                live.add(export)
                changed = True
    unused = sorted(f"{m}.{n}" for n in exports.keys() - live for m in exports[n])
    assert not unused, f"exports no code outside the tests reads: {unused}"


def test_every_imported_name_is_read():
    """Each module of the package and each script reads every name it
    imports; the package's `__init__` reads its imports by listing them in
    `__all__`."""
    unread = []
    for path in sorted((ROOT / "src" / "segdebias").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py")
    ):
        tree = ast.parse(path.read_text())
        read = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets
            ):
                read |= {elt.value for elt in node.value.elts}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{node.lineno}: {name}")
    assert not unread, f"imported names the module never reads: {unread}"


def test_every_config_field_is_set_somewhere():
    """Each field of SynthConfig, PipelineParams and TrainConfig is passed by
    keyword or named in a string by the library, the scripts, the benchmark or
    the tests, outside the class that declares it.  A field that nobody sets
    is a constant."""
    from segdebias.pipeline import PipelineParams
    from segdebias.synth import SynthConfig
    from segdebias.trainloop import TrainConfig

    named = set()  # (name, the top-level class it occurs in, or None)
    for folder in ("src", "scripts", "bench", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                owner = stmt.name if isinstance(stmt, ast.ClassDef) else None
                for node in ast.walk(stmt):
                    if isinstance(node, ast.keyword) and node.arg is not None:
                        named.add((node.arg, owner))
                    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                        named.add((node.value, owner))
    unset = [
        f"{cls.__name__}.{field}"
        for cls in (SynthConfig, PipelineParams, TrainConfig)
        for field in vars(cls)["__annotations__"]
        if not any(name == field and owner != cls.__name__ for name, owner in named)
    ]
    assert not unset, f"fields no caller sets: {unset}"


def test_every_benchmark_hook_resolves():
    """bench/tracer.py wraps each ENTRY_POINTS name on its segdebias.<layer>
    module; a renamed or deleted entry point would break only traced runs."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"segdebias.{layer}.{name}"
        for layer, entries in tracer.ENTRY_POINTS.items()
        for name in entries
        if not callable(getattr(importlib.import_module(f"segdebias.{layer}"), name, None))
    ]
    assert missing == []
