"""The package ships the engine and nothing else.

Every top-level function and class of ``src/conic_pricer``, and every
``@property`` of a top-level class, must be referenced by name somewhere in
the package outside its own definition; every other public method of a
top-level class must be called there (``x.name(...)``), since a name that
is only read may be another object's attribute of the same name.  Every
parameter with a default, and every keyword-only one, of a function, method
or constructor there must be passed, by name or by position, by some call in
the package of that name (a class's name for its constructor): a setting
that only the tests set is not an engine setting.  ``__init__.py`` does not
count: an export alone is not a use.
Reference code that only the tests call belongs in ``tests/``
(``oracles.py``, ``cone_reference.py``, ``lp_reference.py``).
"""

import ast
import pathlib
from collections import Counter

import conic_pricer

PACKAGE = pathlib.Path(conic_pricer.__file__).parent

# definitions that are used without being named in the package, and
# parameters that are passed from outside it, and why
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "cli.main(argv)": "the console script calls main() bare, so argv is passed only "
    "in process: by the benchmark's fixture workload and the CLI tests",
}


def _definitions(module):
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _names(node):
    """How often each name and attribute name is referenced under ``node``."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _method_calls(node):
    """How often each attribute is called (``x.name(...)``) under ``node``."""
    return Counter(
        sub.func.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
    )


def _is_method(qual, node):
    """A method of a class that is not a ``@property``."""
    return "." in qual and not any(
        getattr(d, "id", None) == "property" for d in node.decorator_list
    )


def _modules():
    return {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def unreferenced():
    """Qualified names of the definitions that nothing outside themselves
    references (a method other than a property: calls)."""
    modules = _modules()
    names = sum((_names(module) for module in modules.values()), Counter())
    calls = sum((_method_calls(module) for module in modules.values()), Counter())
    out = []
    for stem, module in modules.items():
        for qual, node in _definitions(module):
            name = qual.rsplit(".", 1)[-1]
            count, everywhere = (
                (_method_calls, calls) if _is_method(qual, node) else (_names, names)
            )
            if everywhere[name] == count(node)[name]:
                out.append(f"{stem}.{qual}")
    return out


def _callables():
    """``(qualified name, the name a call uses, definition, whether a call
    binds its first parameter)`` of every function, method and constructor
    of the package; a constructor is called by its class's name."""
    for stem, module in _modules().items():
        owner = {
            item: cls.name
            for cls in ast.walk(module) if isinstance(cls, ast.ClassDef)
            for item in cls.body if isinstance(item, ast.FunctionDef)
        }
        for node in ast.walk(module):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = owner.get(node)
            if cls is None:
                yield f"{stem}.{node.name}", node.name, node, False
            elif node.name == "__init__":
                yield f"{stem}.{cls}", cls, node, True
            else:
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                yield f"{stem}.{cls}.{node.name}", node.name, node, not static


def _settings(node, bound):
    """``(name, position)`` of each parameter of ``node`` that a call may
    leave out: every one with a default, at its position among the call's
    positional arguments, and every keyword-only one, at position None."""
    positional = (node.args.posonlyargs + node.args.args)[int(bound):]
    first = len(positional) - len(node.args.defaults)
    return [(arg.arg, i) for i, arg in enumerate(positional) if i >= first] + [
        (arg.arg, None) for arg in node.args.kwonlyargs
    ]


def unpassed_settings():
    """``callable(parameter)`` of each parameter that a call may leave out
    and that no call in the package of that callable's name passes, by name
    or by position."""
    passed = set()
    for module in _modules().values():
        for call in ast.walk(module):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                passed.update((name, kw.arg) for kw in call.keywords if kw.arg)
                passed.update((name, i) for i in range(len(call.args)))
    return [
        f"{qual}({arg})"
        for qual, name, node, bound in _callables()
        for arg, at in _settings(node, bound)
        if (name, arg) not in passed and (name, at) not in passed
    ]


def test_every_definition_is_used_by_the_engine():
    unused = [name for name in unreferenced() if name not in ALLOWED]
    assert unused == [], (
        f"referenced nowhere else in the package: {unused}; "
        "move reference code to tests/ or delete it"
    )


def test_every_setting_is_passed_by_the_engine():
    unpassed = [name for name in unpassed_settings() if name not in ALLOWED]
    assert unpassed == [], (
        f"parameters with a default that no call in the package passes: {unpassed}; "
        "drop the setting or give it an engine caller"
    )


def test_every_allowance_is_still_needed():
    assert set(ALLOWED) <= set(unreferenced()) | set(unpassed_settings())
