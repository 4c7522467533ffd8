"""Every name in quantcap.__all__ is used by another module of the package
(its own definition does not count), or is an independent oracle that a
named test cross-checks the solvers with.  Likewise every parameter with a
default, of an exported function or of a `def` method of an exported class,
is passed by some call in another module of the package, or is listed with
the test that needs it."""

import ast
import inspect
from pathlib import Path

import quantcap

PACKAGE = Path(quantcap.__file__).parent

ORACLES = {
    "optimize_input_blahut_arimoto": (
        "test_optimize.py",
        "test_ba_value_at_certified_multiplier_is_capacity",
    ),
}

# (function, parameter): the test that needs a setting no module passes.
TEST_ONLY_PARAMETERS = {
    ("optimize_quantizer_2bit", "q_grid"): (
        "test_quantopt.py",
        "test_user_grid_with_best_on_edge_is_extended",
    ),
}


def _trees():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _assert_named_test(module, test, *names):
    source = (Path(__file__).parent / module).read_text(encoding="utf-8")
    assert f"def {test}(" in source and all(name in source for name in names)


def test_every_export_is_used_by_the_package_or_is_an_oracle():
    used = set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert sorted(set(quantcap.__all__) - used - set(ORACLES)) == []
    for name, (module, test) in ORACLES.items():
        assert name in quantcap.__all__ and name not in used
        _assert_named_test(module, test, name)


def _defaulted_parameters(fn, is_method):
    """{name: position among the call's positional arguments, or None if the
    parameter is keyword-only} for the parameters of `fn` that have a default."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    skip = 1 if is_method and not static else 0  # self or cls
    out = {
        name: i - skip
        for i, name in enumerate(positional)
        if i >= len(positional) - len(args.defaults)
    }
    out.update(
        (a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    )
    return out


def _exported_defs(trees):
    """(module file, function name, ast def, is_method) for every exported
    function and every `def` method of an exported class."""
    for name in quantcap.__all__:
        obj = getattr(quantcap, name)
        if name in ORACLES or not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        module = Path(inspect.getsourcefile(obj)).name
        (node,) = [n for n in trees[module].body if getattr(n, "name", None) == name]
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield module, item.name, item, True
        else:
            yield module, name, node, False


def _passed(trees, module, name):
    """Parameter names and positions that calls to `name` pass, over every
    package module but `module`.  A `**{...}` literal passes its keys."""
    names, count = set(), 0
    for other, tree in trees.items():
        if other == module:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "id", None) != name and getattr(func, "attr", None) != name:
                continue
            count = max(count, sum(not isinstance(a, ast.Starred) for a in node.args))
            for kw in node.keywords:
                if kw.arg is not None:
                    names.add(kw.arg)
                    continue
                for sub in ast.walk(kw.value):
                    if isinstance(sub, ast.Dict):
                        names.update(k.value for k in sub.keys if isinstance(k, ast.Constant))
    return names, count


def test_every_defaulted_parameter_is_passed_by_the_package():
    trees = _trees()
    unpassed = set()
    for module, name, fn, is_method in _exported_defs(trees):
        names, count = _passed(trees, module, name)
        for param, pos in _defaulted_parameters(fn, is_method).items():
            if param not in names and (pos is None or pos >= count):
                unpassed.add((name, param))
    assert sorted(unpassed - set(TEST_ONLY_PARAMETERS)) == []
    for (name, param), (module, test) in TEST_ONLY_PARAMETERS.items():
        assert (name, param) in unpassed
        _assert_named_test(module, test, name, param)
