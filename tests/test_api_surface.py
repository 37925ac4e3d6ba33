"""Every public function and method of ``src/crossview`` has a caller outside the tests.

The program is ``src/crossview`` (the package ``__init__``'s re-exports
aside), ``scripts/`` and ``bench/``. A function counts as called when its
name appears in a program file as a name, an attribute or an imported name;
so does a method, matched by attribute name. Where several classes define a
method name, a use counts for a class only in the class's own module or in a
file that also names the class: an attribute name alone cannot tell
``LossConfig.to_json_dict`` from ``SceneSpec.to_json_dict``.
Reference code that only tests need lives in ``tests/conftest.py``.
"""

import ast
from collections import Counter

from conftest import ROOT

PACKAGE = ROOT / "src" / "crossview"

# public names without a caller in the program, each kept on purpose
ALLOWED = {
    "evaluation.GroundTruthProjection.save":
        "the only writer of the gt-projection-v1 directory that `crossview eval` reads",
    "refiner.RefinerParams.save":
        "the only writer of the refiner-params-v1 directory that `crossview solve` reads",
}


def _program_files():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return files + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _names_by_file() -> dict:
    """Program file -> every name, attribute and imported name it mentions."""
    names = {}
    for path in _program_files():
        used = names.setdefault(path, set())
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return names


def _public_defs():
    """(module path, class name or None, name) of every public function and method."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, funcs):
                yield path, None, node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, funcs):
                        yield path, node.name, item.name


def _qualified(module, cls, name) -> str:
    return ".".join(filter(None, (module.stem, cls, name)))


def _is_called(names: dict, shared: set, module, cls, name) -> bool:
    if name not in shared:
        return any(name in used for used in names.values())
    return any(name in used and (path == module or cls in used) for path, used in names.items())


def test_every_public_function_has_a_program_caller():
    names = _names_by_file()
    defs = list(_public_defs())
    method_counts = Counter(name for _, cls, name in defs if cls is not None)
    shared = {name for name, count in method_counts.items() if count > 1}
    uncalled = sorted(_qualified(*d) for d in defs
                      if not d[2].startswith("_") and not _is_called(names, shared, *d))
    assert uncalled == sorted(ALLOWED), (
        "public names only tests call (move them to tests/conftest.py, or delete them): "
        f"{sorted(set(uncalled) - set(ALLOWED))}; allowed names now called or gone: "
        f"{sorted(set(ALLOWED) - set(uncalled))}")

