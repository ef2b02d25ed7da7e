"""Every module of the package imports only names it uses, or names the benchmark wraps there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _wrapped() -> set[tuple[str, str]]:
    """The (module, name) pairs that perfbench/spans.py's TARGETS wraps."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text("utf-8"))
    (targets,) = [node.value for node in tree.body
                  if isinstance(node, ast.AnnAssign) and node.target.id == "TARGETS"]
    return {pair for pairs in ast.literal_eval(targets).values() for pair in pairs}


def test_every_import_is_used_or_wrapped_by_the_benchmark():
    wrapped = _wrapped()
    unused = {}
    for path in sorted((ROOT / "src" / "storparity").glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's API
            continue
        tree = ast.parse(path.read_text("utf-8"))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                   or isinstance(node, ast.ImportFrom) and node.module != "__future__"]
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in imports for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = f"storparity.{path.stem}"
        unused[module] = sorted(name for name in imported - used if (module, name) not in wrapped)
    assert unused == dict.fromkeys(unused, [])
