"""Every top-level function and class of the package, and every method and
property of a top-level class, has a caller in the package.

An AST scan of ``src/crhomotopy/*.py``: a top-level name counts as
referenced when code in ``src/`` outside its own definition reads it, as a
name, an attribute or an import; a method or property counts as referenced
when an attribute read in ``src/`` outside its own body uses its name.  A
name that only tests, oracles or the benchmark use is dead code for the
package; it stays only on ``ALLOWED`` with the reason, so the allowlist is
the backlog of such names.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "crhomotopy"

# (module, name) or (module, "Class.method") -> why it stays without a
# package caller
ALLOWED = {
    ("_util", "small_det"): "the benchmark's tracer wraps it",
    ("_util", "det5_cols"): "the benchmark's tracer wraps it",
    ("quadrature", "_sphere_tangent_basis"): "the benchmark's tracer wraps it",
    ("norms", "regularity_gain_report"): "the benchmark's tracer wraps it",
    ("geometry", "find_modification_amplitude"):
        "the benchmark's tracer wraps it",
    ("homotopy", "_det9_blocks"): "the benchmark's tracer wraps it",
    ("quadrature", "QuadratureGrid.header"):
        "the benchmark keys node streams by it",
    ("indexcalc", "realized_kernel_decay"): "the decay_n6m2 workload calls it",
    ("indexcalc", "classify_term"):
        "index-audit is to report each term's table class",
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


def _attribute_reads(node):
    """How often each attribute name is read in the tree ``node``."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute)
                   and isinstance(sub.ctx, ast.Load))


def _defined(body):
    """The functions and classes of ``body`` without dunder names."""
    return [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("__")]


def _unreferenced():
    """(module, name) of the top-level definitions that no code in src/
    reads outside the definition itself, and (module, "Class.method") of
    the methods and properties whose name no attribute read outside their
    own body uses."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    total = sum((_names(tree) for tree in trees.values()), Counter())
    reads = sum((_attribute_reads(tree) for tree in trees.values()),
                Counter())
    dead = set()
    for module, tree in trees.items():
        for node in _defined(tree.body):
            if total[node.name] == _names(node)[node.name]:
                dead.add((module, node.name))
            if isinstance(node, ast.ClassDef):
                dead |= {(module, f"{node.name}.{member.name}")
                         for member in _defined(node.body)
                         if isinstance(member, ast.FunctionDef)
                         and reads[member.name]
                         == _attribute_reads(member)[member.name]}
    return dead


def test_every_definition_has_a_package_caller():
    dead = sorted(_unreferenced() - set(ALLOWED))
    assert not dead, f"no caller in src/: {dead}"


def test_allowlist_is_current():
    # an allowed name that was deleted or gained a caller leaves the list
    stale = sorted(set(ALLOWED) - _unreferenced())
    assert not stale, f"remove from ALLOWED: {stale}"
