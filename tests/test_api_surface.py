"""Every public function and method of ``src/crossview``, and every defaulted
parameter of one, has a caller outside the tests.

The program is ``src/crossview`` (the package ``__init__``'s re-exports
aside), ``scripts/`` and ``bench/``. A function counts as called when its
name appears in a program file as a name, an attribute or an imported name;
so does a method, matched by attribute name. Where several classes define a
method name, a use counts for a class only in the class's own module or in a
file that also names the class: an attribute name alone cannot tell
``LossConfig.to_json_dict`` from ``SceneSpec.to_json_dict``.

A defaulted parameter counts as set when a program call of the function's
name passes it by keyword, or passes enough positional arguments to reach
it (``self`` and ``cls`` aside). A call through a name bound to
``functools.partial(f, ...)`` is a call of ``f`` with the partial's
arguments first, and the bench recorders' ``rec(label, f, ...)`` and
``rec.branch(label, f, ...)`` are calls of ``f`` with the arguments after it.
Reference code that only tests need lives in ``tests/conftest.py``.
"""

import ast
from collections import Counter

from conftest import ROOT

PACKAGE = ROOT / "src" / "crossview"

# public names without a caller in the program, each kept on purpose
ALLOWED = {
    "evaluation.save_gt_projection":
        "the only writer of the gt-projection-v2 directory that `crossview eval` reads",
}

# defaulted parameters that no program call sets, each kept on purpose
ALLOWED_DEFAULTS = {
    "cli.main(argv)": "the console entry point reads sys.argv; tests pass argv",
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


def _defs():
    """(module path, class name or None, def node) of every function and method."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, funcs):
                yield path, None, node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, funcs):
                        yield path, node.name, item


def _qualified(module, cls, name) -> str:
    return ".".join(filter(None, (module.stem, cls, name)))


def _is_called(names: dict, shared: set, module, cls, name) -> bool:
    if name not in shared:
        return any(name in used for used in names.values())
    return any(name in used and (path == module or cls in used) for path, used in names.items())


def test_every_public_function_has_a_program_caller():
    names = _names_by_file()
    defs = [(path, cls, fn.name) for path, cls, fn in _defs()]
    method_counts = Counter(name for _, cls, name in defs if cls is not None)
    shared = {name for name, count in method_counts.items() if count > 1}
    uncalled = sorted(_qualified(*d) for d in defs
                      if not d[2].startswith("_") and not _is_called(names, shared, *d))
    assert uncalled == sorted(ALLOWED), (
        "public names only tests call (move them to tests/conftest.py, or delete them): "
        f"{sorted(set(uncalled) - set(ALLOWED))}; allowed names now called or gone: "
        f"{sorted(set(ALLOWED) - set(uncalled))}")


def _callee(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls(tree):
    """(callee name, positional count, keyword names) of every call in ``tree``.

    A ``functools.partial`` bound to a name, and a bench recorder's stage
    argument, resolve to the function they call.
    """
    partials = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Call)
                and _callee(node.value.func) == "partial" and node.value.args):
            call = node.value
            partials[node.targets[0].id] = (_callee(call.args[0]), len(call.args) - 1,
                                            {k.arg for k in call.keywords})
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args, keywords = _callee(node.func), node.args, {k.arg for k in node.keywords}
        if name in ("rec", "branch") and len(args) >= 2:
            name, args = _callee(args[1]), args[2:]
        positional = len(args)
        if name in partials:
            name, bound, bound_keywords = partials[name]
            positional += bound
            keywords |= bound_keywords
        yield name, positional, keywords


def _defaulted_parameters():
    """(``module.function(parameter)``, function name, parameter, positional index or None)
    of every defaulted parameter of a public function or method."""
    for path, _, fn in _defs():
        if fn.name.startswith("_"):
            continue
        a = fn.args
        positional = [p.arg for p in a.posonlyargs + a.args]
        if positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]
        first = len(positional) - len(a.defaults)
        defaulted = [(p, i) for i, p in enumerate(positional) if i >= first]
        defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
        for param, index in defaulted:
            yield f"{path.stem}.{fn.name}({param})", fn.name, param, index


def test_every_defaulted_parameter_is_set_by_the_program():
    calls = [c for path in _program_files()
             for c in _calls(ast.parse(path.read_text(), filename=str(path)))]
    unset = sorted(
        qualified for qualified, fn, param, index in _defaulted_parameters()
        if not any(name == fn and (param in keywords or index is not None and positional > index)
                   for name, positional, keywords in calls))
    assert unset == sorted(ALLOWED_DEFAULTS), (
        "defaulted parameters only tests set (make them required, or fix them in the "
        f"function): {sorted(set(unset) - set(ALLOWED_DEFAULTS))}; allowed parameters now set "
        f"or gone: {sorted(set(ALLOWED_DEFAULTS) - set(unset))}")
