import ast
import sys

from conftest import REPO_ROOT


def test_package_imports_only_numpy_and_the_standard_library():
    # scipy and sympy may be installed, but the package must not need them
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    paths = sorted((REPO_ROOT / "src" / "cscert").glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"
