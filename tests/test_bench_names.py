"""Every predcut name the benchmark uses resolves on the package.

The benchmark files are read, never changed or run: each `pc.<name>`
chain (the benchmark's name for predcut) and each `from predcut.<module>
import <name>` must resolve, so a change that deletes or renames a name
the benchmark calls fails here and not in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _used_names(tree):
    """(module, attribute chain) of each predcut name used in a parsed file."""
    aliases = {"pc": "predcut"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update({a.asname or a.name: a.name for a in node.names
                            if a.name.split(".")[0] == "predcut"})
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "predcut":
            yield from ((node.module, (a.name,)) for a in node.names)
        elif isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in aliases:
                yield aliases[node.id], tuple(chain)


def _resolves(module, chain):
    obj = importlib.import_module(module)
    for name in chain:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_predcut_name_the_benchmark_uses_resolves():
    used = {(path.name, module, chain) for path in sorted(BENCH.glob("*.py"))
            for module, chain in _used_names(ast.parse(path.read_text()))}
    # the scan sees the calls it guards
    assert {("predcut", ("CspInstance",)), ("predcut", ("solve_csp_wide",)),
            ("predcut.sdp", ("round_by_direction",))} <= {(m, c) for _, m, c in used}
    missing = sorted(f"{path}: {module}.{'.'.join(chain)}" for path, module, chain in used
                     if not _resolves(module, chain))
    assert missing == []
