"""Every module-level import in the package is used, and no solve imports
scipy, whatever its number of budgets or priors.

``__init__.py`` is left out: its imports are the public re-exports.  An
import statement carrying ``# noqa: F401`` is exempt, as for flake8.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "capdist"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = set()
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


SCALAR_CALLS = """
import sys
import capdist as cd
scalar = cd.scalar_multiplicative_model(0.3)
point = cd.capacity_distortion_point(scalar, 0.05)
cd.cd_curve(scalar, 20)
cd.cpud_sup_definition(scalar)
cd.simulate(scalar, point.optimizer.probs, 10_000, 7)
cost = cd.optimal_estimator(scalar).cost_vector
cd.multi_constraint_point(scalar, [cd.CostConstraint(cost, 0.05), cd.CostConstraint(cost[::-1], 0.28)])
cd.compound_cd(cd.CompoundFamily(scalar.transition, ([0.5, 0.5], [0.8, 0.2]), scalar.distortion), 0.05)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_no_solve_imports_scipy():
    # The several-budget linear step and the matrix game run the package's
    # own simplex (``solver._LinearProgram``); importing scipy.optimize costs
    # about three times the package's own import.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                                     os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", SCALAR_CALLS], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
