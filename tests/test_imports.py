"""Static check that every module-level import in the package is used.

No linter is a dependency, so the check reads each module with the
standard-library ast module: a name bound by a top-level import must be
read somewhere in that module.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "nwspectral"


def _unused_imports(source):
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi as tau\nprint(sys)\n"
    assert _unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
