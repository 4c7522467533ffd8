"""Every name in quantcap.__all__ is used by another module of the package
(its own definition does not count), or is an independent oracle that a
named test cross-checks the solvers with."""

import ast
from pathlib import Path

import quantcap

ORACLES = {
    "optimize_input_blahut_arimoto": (
        "test_optimize.py",
        "test_ba_value_at_certified_multiplier_is_capacity",
    ),
}


def test_every_export_is_used_by_the_package_or_is_an_oracle():
    used = set()
    for path in Path(quantcap.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
    assert sorted(set(quantcap.__all__) - used - set(ORACLES)) == []
    for name, (module, test) in ORACLES.items():
        assert name in quantcap.__all__ and name not in used
        source = (Path(__file__).parent / module).read_text(encoding="utf-8")
        assert f"def {test}(" in source and name in source
