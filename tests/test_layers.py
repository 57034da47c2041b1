"""The import boundary: the lab never imports its checks.

``probelab.verify`` holds the golden suite and the paper's reference routes
(the two-qubit K-combination systems, the closed-form tensor powers, the
parity obstruction and the dense residuals).  The lab modules compute and
search on their own, so none of them may import it; only ``cli``'s
``verify`` subcommand and the package ``__init__`` reach it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "probelab"
LAB_MODULES = ("solver", "fisher", "montecarlo", "dynamics", "states", "operators", "config", "report")


def imported_names(source: str) -> set[str]:
    """The dotted name of every module or member an import in ``source``
    binds, relative imports resolved against ``probelab``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["probelab" if node.level else "", node.module]))
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def imports_verify(source: str) -> bool:
    return any(f"{name}.".startswith("probelab.verify.") for name in imported_names(source))


@pytest.mark.parametrize("module", LAB_MODULES)
def test_lab_module_does_not_import_verify(module):
    assert not imports_verify((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "source",
    ["from . import verify", "from .verify import closed_form_solution",
     "from probelab import fisher, verify", "import probelab.verify",
     "from probelab.verify import sol1_residual", "def f():\n    from . import states, verify"],
)
def test_every_import_form_of_verify_is_seen(source):
    assert imports_verify(source)
    assert not imports_verify(source.replace("verify", "solver"))
