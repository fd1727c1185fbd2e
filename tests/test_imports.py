"""Every module in ``src/bandsel`` uses each name it imports (no linter is needed to check it)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bandsel"


def unused_imports(tree):
    """Names bound by an import that the module neither references nor lists in ``__all__``."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        names = unused_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if names:
            unused[str(path.relative_to(PACKAGE))] = names
    assert not unused, f"unused imports: {unused}"

