"""Every name in quantcap.__all__ is used by another module of the package
(its own definition does not count), or is an independent oracle that a
named test cross-checks the solvers with.  Likewise every parameter with a
default, of an exported function or of a `def` method of an exported class,
is passed by some call in another module of the package, with no test-only
exception.  A defaulted field of an exported dataclass counts like a
parameter of its constructor, passed by a call in any module of the
package, its own included, because result types are built where they are
defined.  An argument that is a literal equal to the default passes
nothing.  Last, the fixed-quantizer capacity path, run in a fresh
interpreter, never loads scipy.optimize."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import quantcap

PACKAGE = Path(quantcap.__file__).parent

ORACLES = {
    "optimize_input_blahut_arimoto": (
        "test_optimize.py",
        "test_ba_value_at_certified_multiplier_is_capacity",
    ),
}

# ast.literal_eval of a node that is not a literal
_NOT_LITERAL = object()


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


def _literal(node):
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return _NOT_LITERAL


def _defaulted_parameters(fn, is_method):
    """{name: (position among the call's positional arguments, or None if the
    parameter is keyword-only; the default's literal value)} for the
    parameters of `fn` that have a default."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    skip = 1 if is_method and not static else 0  # self or cls
    first = len(positional) - len(args.defaults)
    out = {
        name: (i - skip, _literal(args.defaults[i - first]))
        for i, name in enumerate(positional)
        if i >= first
    }
    out.update(
        (a.arg, (None, _literal(d)))
        for a, d in zip(args.kwonlyargs, args.kw_defaults)
        if d is not None
    )
    return out


def _defaulted_fields(cls):
    """The same map for the fields of a dataclass that have a default; a
    `field(default_factory=...)` default has no literal value."""
    out = {}
    fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)]
    for i, node in enumerate(fields):
        if node.value is None:
            continue
        default = node.value
        if isinstance(default, ast.Call) and getattr(default.func, "id", None) == "field":
            given = [kw.value for kw in default.keywords if kw.arg == "default"]
            default = given[0] if given else None
        out[node.target.id] = (i, _NOT_LITERAL if default is None else _literal(default))
    return out


def _exported_defs(trees):
    """(module file, callee name, defaulted parameters, whether calls in the
    module itself count) for every exported function, every `def` method of
    an exported class, and the constructor of every exported dataclass."""
    for name in quantcap.__all__:
        obj = getattr(quantcap, name)
        if name in ORACLES or not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        module = Path(inspect.getsourcefile(obj)).name
        (node,) = [n for n in trees[module].body if getattr(n, "name", None) == name]
        if isinstance(node, ast.ClassDef):
            if dataclasses.is_dataclass(obj):
                yield module, name, _defaulted_fields(node), True
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield module, item.name, _defaulted_parameters(item, True), False
        else:
            yield module, name, _defaulted_parameters(node, False), False


def _callees(func):
    """Names a call may reach: both branches of a conditional expression."""
    if isinstance(func, ast.IfExp):
        return _callees(func.body) | _callees(func.orelse)
    return {getattr(func, "id", None), getattr(func, "attr", None)}


def _passed(trees, module, name, params, own_module):
    """The defaulted parameters that calls to `name` pass, over every package
    module but `module` unless `own_module`.  A `**{...}` literal passes its
    keys; an argument that is a literal equal to the default passes nothing."""
    by_position = {pos: p for p, (pos, _) in params.items() if pos is not None}
    passed = set()

    def pass_value(param, value):
        default = params[param][1]
        literal = _literal(value)
        if literal is _NOT_LITERAL or default is _NOT_LITERAL or literal != default:
            passed.add(param)

    for other, tree in trees.items():
        if other == module and not own_module:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or name not in _callees(node.func):
                continue
            for pos, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                if pos in by_position:
                    pass_value(by_position[pos], arg)
            for kw in node.keywords:
                if kw.arg is not None:
                    if kw.arg in params:
                        pass_value(kw.arg, kw.value)
                    continue
                for sub in ast.walk(kw.value):
                    if isinstance(sub, ast.Dict):
                        passed.update(
                            k.value for k in sub.keys if isinstance(k, ast.Constant)
                        )
    return passed


def test_every_defaulted_parameter_is_passed_by_the_package():
    trees = _trees()
    unpassed = set()
    for module, name, params, own_module in _exported_defs(trees):
        passed = _passed(trees, module, name, params, own_module)
        unpassed.update((name, param) for param in params if param not in passed)
    assert sorted(unpassed) == []


# scipy.optimize serves only the joint searches and the mass solve's
# `_join_step`; the capacity path, the bound path and `verify` never load it.
_CAPACITY_PATH = textwrap.dedent(
    """
    import sys

    import quantcap
    from quantcap import cli

    spec = quantcap.ChannelSpec.from_snr_db(
        10.0, quantcap.BenchmarkScheme.build(4, 10.0).quantizer
    )
    result = quantcap.optimize_input_cutting_plane(spec)
    asymmetric = quantcap.ChannelSpec.from_snr_db(
        5.0, quantcap.Quantizer((-2.6, -1.3, -0.4, 0.2, 0.9, 1.7, 3.1))
    )
    assert quantcap.optimize_input_cutting_plane(asymmetric).converged
    assert quantcap.benchmark_mutual_information(8, 10.0) > 0.0
    assert cli.main(["capacity", "--snr-db", "0..10", "--step", "10", "--bits", "2"]) == 0
    assert cli.main(["benchmark", "--snr-db", "0..10", "--step", "10", "--bits", "3"]) == 0
    assert cli.main(["bound", "--snr-db", "0..20", "--step", "5", "--bits", "2"]) == 0
    assert cli.main(["verify", "all"]) == 0
    bound, _ = quantcap.duality_upper_bound(spec, result)
    assert bound >= result.capacity - 1e-9, (bound, result.capacity)
    assert "scipy.optimize" not in sys.modules, "the capacity, bound or verify path loaded it"
    """
)


def test_capacity_path_does_not_load_scipy_optimize():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", _CAPACITY_PATH],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
