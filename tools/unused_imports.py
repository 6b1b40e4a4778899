"""List the module-level imports of the orbitkit sources that their module
never references, and exit 1 if there are any.

A name counts as referenced when it appears as a name anywhere in the
module's code; a mention in a docstring, a comment or a string does not
count.  ``__init__.py`` is skipped (its imports are the package's
re-exports), and so is an import line marked ``# noqa: F401`` (a binding
kept on purpose, such as one that a tracer wraps).  Standard library only.
Run from anywhere:

    python tools/unused_imports.py
"""

import ast
import sys
from pathlib import Path


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of each module-level import of ``path`` that the
    module never references."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        # ``import a.b`` binds ``a``
        names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
        unused += [(node.lineno, name) for name in names if name not in used]
    return unused


def main() -> int:
    files = sorted((Path(__file__).resolve().parents[1] / "src" / "orbitkit").rglob("*.py"))
    files = [path for path in files if path.name != "__init__.py"]
    found = [(path, line, name) for path in files for line, name in unused_imports(path)]
    for path, line, name in found:
        print(f"{path.name}:{line}: '{name}' is imported but never used")
    print(f"{len(found)} unused imports in {len(files)} modules")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
