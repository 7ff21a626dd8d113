"""The package ships the engine and nothing else.

Every top-level function and class of ``src/conic_pricer``, and every
``@property`` of a top-level class, must be referenced by name somewhere in
the package outside its own definition; every other public method of a
top-level class must be called there (``x.name(...)``), since a name that
is only read may be another object's attribute of the same name.  Every
keyword-only parameter of a function there must be passed by name by some
call in the package: a setting that only the tests set is not an engine
setting.  ``__init__.py`` does not count: an export alone is not a use.
Reference code that only the tests call belongs in ``tests/``
(``oracles.py``, ``cone_reference.py``, ``lp_reference.py``).
"""

import ast
import pathlib
from collections import Counter

import conic_pricer

PACKAGE = pathlib.Path(conic_pricer.__file__).parent

# definitions that are used without being named in the package, and why
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
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


def unpassed_settings():
    """``function.parameter`` of each keyword-only parameter that no call in
    the package passes by name to a function of that name."""
    nodes = [node for module in _modules().values() for node in ast.walk(module)]
    passed = {
        (getattr(node.func, "id", getattr(node.func, "attr", None)), keyword.arg)
        for node in nodes if isinstance(node, ast.Call)
        for keyword in node.keywords
    }
    return [
        f"{node.name}.{arg.arg}"
        for node in nodes if isinstance(node, ast.FunctionDef)
        for arg in node.args.kwonlyargs
        if (node.name, arg.arg) not in passed
    ]


def test_every_definition_is_used_by_the_engine():
    unused = [name for name in unreferenced() if name not in ALLOWED]
    assert unused == [], (
        f"referenced nowhere else in the package: {unused}; "
        "move reference code to tests/ or delete it"
    )


def test_every_setting_is_passed_by_the_engine():
    unpassed = unpassed_settings()
    assert unpassed == [], (
        f"keyword-only parameters no call in the package passes: {unpassed}; "
        "drop the setting or give it an engine caller"
    )


def test_every_allowance_is_still_needed():
    assert set(ALLOWED) <= set(unreferenced())
