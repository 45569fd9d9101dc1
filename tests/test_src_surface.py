"""Every public function under ``src/`` is one that the package or the benchmark calls.

A public module-level function that is referenced nowhere in ``src/``
outside its own definition, and nowhere in ``perfbench/``, serves only the
tests: it belongs in ``tests/oracles.py``. References are ``ast`` names
and attributes, so a mention in a docstring or comment does not count.

Every simulated statistic also runs through one replicate function: the
kernel has one call site and the replicate faults one handler.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spikedcov"

# name -> why it stays in src/ although nothing there calls it yet
ALLOWED = {
    "chi_mixture_sample": "the C1 reference law that eigvec reports are to be compared with",
    "blas_threads": "the BLAS thread count a run is to report about itself",
}


class _References(ast.NodeVisitor):
    """Counts names and attributes, skipping those inside a function of the same name."""

    def __init__(self):
        self.counts = Counter()
        self._enclosing = []

    def visit_FunctionDef(self, node):
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if node.id not in self._enclosing:
            self.counts[node.id] += 1

    def visit_Attribute(self, node):
        if node.attr not in self._enclosing:
            self.counts[node.attr] += 1
        self.generic_visit(node)


def _public_functions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                yield f"{path.name}::{node.name}", node.name


def _references():
    refs = _References()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        refs.visit(ast.parse(path.read_text(encoding="utf-8")))
    return refs.counts


def test_every_public_function_is_reached_from_src_or_perfbench():
    counts = _references()
    unreached = [where for where, name in _public_functions() if not counts[name] and name not in ALLOWED]
    assert not unreached, f"called only from tests; move to tests/oracles.py: {unreached}"


def test_allowlist_holds_only_unreached_functions():
    counts = _references()
    names = {name for _, name in _public_functions()}
    stale = sorted(name for name in ALLOWED if name not in names or counts[name])
    assert not stale, f"drop from ALLOWED, gone or now called: {stale}"


def _package_trees():
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]


def _calls(node, name: str) -> bool:
    return any(
        isinstance(call, ast.Call) and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
        for call in ast.walk(node)
    )


def test_one_function_runs_the_replicate_kernel():
    # a nested function counts with each function around it
    callers = [
        getattr(fn, "name", "<lambda>")
        for tree in _package_trees()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and _calls(fn, "simulate_instance")
    ]
    assert callers == ["_replicate_value"], f"simulate_instance called from {callers}"


def test_one_handler_catches_replicate_faults():
    handlers = [
        node
        for tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and any(isinstance(n, ast.Name) and n.id == "REPLICATE_FAULTS" for n in ast.walk(node.type))
    ]
    assert len(handlers) == 1, f"{len(handlers)} except clauses catch REPLICATE_FAULTS"
