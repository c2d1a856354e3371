"""Every top-level function and class of the package has a caller in the
package.

An AST scan of ``src/crhomotopy/*.py``: a name counts as referenced when
code in ``src/`` outside its own definition reads it, as a name, an
attribute or an import.  A name that only tests, oracles or the benchmark
use is dead code for the package; it stays only on ``ALLOWED`` with the
reason, so the allowlist is the backlog of such names.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "crhomotopy"

# (module, name) -> why it stays without a package caller
ALLOWED = {
    ("_util", "small_det"): "the benchmark's tracer wraps it",
    ("_util", "det5_cols"): "the benchmark's tracer wraps it",
    ("quadrature", "_sphere_tangent_basis"): "the benchmark's tracer wraps it",
    ("indexcalc", "realized_kernel_decay"): "the decay_n6m2 workload calls it",
    ("homotopy", "glue_solution"): "the global identity; a caller is open",
    ("homotopy", "glue_obstruction"): "the global identity; a caller is open",
    ("fields", "make_cutoff_pair"): "the gluing's cutoffs; with the gluing",
    ("indexcalc", "classify_far_integral"): "test-only, on the deletion list",
    ("indexcalc", "classify_term"): "test-only, on the deletion list",
    ("indexcalc", "vanishing_identity_checks"):
        "test-only, on the deletion list",
    ("fields", "gradient_flow_projection"):
        "the second extension of the acceptance test",
    ("fields", "tangential_dbar_values"): "TestTangentialDbar checks it",
    ("errors", "DegeneratePointError"): "the oracles use it",
}


def _names(node):
    """How often each name is read in the tree ``node``."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            counts[sub.name] += 1
    return counts


def _unreferenced():
    """(module, name) of the top-level definitions that no code in src/
    reads outside the definition itself."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    total = sum((_names(tree) for tree in trees.values()), Counter())
    return {(module, node.name) for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("__")
            and total[node.name] == _names(node)[node.name]}


def test_every_definition_has_a_package_caller():
    dead = sorted(_unreferenced() - set(ALLOWED))
    assert not dead, f"no caller in src/: {dead}"


def test_allowlist_is_current():
    # an allowed name that was deleted or gained a caller leaves the list
    stale = sorted(set(ALLOWED) - _unreferenced())
    assert not stale, f"remove from ALLOWED: {stale}"
