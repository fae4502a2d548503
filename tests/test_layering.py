import ast
from pathlib import Path

import schedlab

PACKAGE = Path(schedlab.__file__).parent


def test_no_module_imports_a_private_name_from_a_sibling():
    # a module's single-underscore names are its own; dunders are exempt
    leaks = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("schedlab"):
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    leaks.append(f"{path.name}: {node.module} {alias.name}")
    assert leaks == []
