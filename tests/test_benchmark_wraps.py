"""The names the benchmark's tracer wraps exist, and uninstalling the tracer
restores every one of them.

``perfbench/tracing.py`` wraps package attributes by name; a deleted or
renamed one fails ``install`` here, naming the attribute, in about a second
instead of in the traced smoke runs of ``perfbench/test_perfbench.py``.
"""

import sys
from pathlib import Path

from crhomotopy import (_util, barrier, cf_forms, cli, fields,  # noqa: F401
                        geometry, homotopy, indexcalc, norms, quadrature,
                        sections)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import Tracer, install  # noqa: E402


def _attributes():
    """(owner, attr) -> value over every crhomotopy module and the classes
    whose methods the tracer wraps."""
    owners = [mod for name, mod in sorted(sys.modules.items())
              if name == "crhomotopy" or name.startswith("crhomotopy.")]
    owners += [fields.FormField, quadrature.QuadratureGrid]
    return {(owner.__name__, attr): value for owner in owners
            for attr, value in vars(owner).items()}


def test_install_wraps_and_uninstall_restores():
    before = _attributes()
    uninstall = install(Tracer("t"))
    try:
        during = _attributes()
    finally:
        uninstall()
    after = _attributes()
    wrapped = {key for key, value in during.items()
               if before.get(key) is not value}
    assert {("crhomotopy.barrier", "_frames_for_thetas"),
            ("crhomotopy.quadrature", "_sphere_tangent_basis"),
            ("QuadratureGrid", "chunks"), ("FormField", "values")} <= wrapped
    assert set(after) == set(before)
    for key in wrapped:
        assert after[key] is before[key], ".".join(key)
