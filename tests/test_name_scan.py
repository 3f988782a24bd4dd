"""Every function the package defines is named by the program itself.

A name scan over ``src/repro`` with ``ast``: each function and method
(dunders aside) must be named somewhere in ``src/``, ``examples/``,
``benchmarks/`` or ``perfbench/`` other than its own ``def``.  A name
counts when it appears as a variable, an attribute, or a token of a
string without whitespace (runner strings such as
``"repro.runner:run_spec"``).  Entries of ``__all__`` and import
statements do not count: exporting a function is not using it.

A function that only the tests name is model surface that no run
reaches.  Delete it, or list it in ``ALLOWED`` with the reason it stays.
The reachability census in EXPERIMENTS.md is the stronger check; this
scan is the cheap guard that keeps the surface from growing back.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
USERS = ("src", "examples", "benchmarks", "perfbench")
TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: name -> why it stays although no program code names it
ALLOWED = {
    "check_coherency": "cache oracle: tests judge XI coherency with it",
    "data_in_use": "cache oracle: tests check data-element accounting",
    "is_registered": "cache oracle: tests check directory registration",
    "version_of": "cache oracle: tests read a page's CF version",
    "is_valid": "buffer-manager oracle: tests check local validity",
    "check_invariant": "lock-space oracle: 2PL safety in the lock tests",
    "max_skew": "timer oracle: tests bound the TOD clock skew",
    "manifests": "adversary oracle: each catalog entry's predicate",
    "events_per_committed_txn": "the cost metric of ROADMAP item 2",
    "processed": "kernel introspection the kernel tests assert on",
    "peek": "kernel introspection the kernel tests assert on",
}


def _all_nodes(tree):
    """The nodes that make up the module's ``__all__`` list."""
    out = set()
    for node in tree.body:
        targets = getattr(node, "targets", ())
        if any(getattr(t, "id", None) == "__all__" for t in targets):
            out |= {id(n) for n in ast.walk(node.value)}
    return out


def _scan(tree):
    """The identifiers a module uses (outside imports and ``__all__``)
    and the functions it defines."""
    used, defined = set(), []
    skip = _all_nodes(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.append(node)
        elif isinstance(node, ast.Constant) and id(node) not in skip:
            if isinstance(node.value, str) and not re.search(r"\s", node.value):
                used.update(TOKEN.findall(node.value))
    return used, defined


def _unnamed():
    named, defined = set(), []
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            used, defs = _scan(ast.parse(path.read_text(), filename=str(path)))
            named |= used
            if path.is_relative_to(PACKAGE):
                defined += [(path, node) for node in defs]
    unnamed = {}
    for path, node in defined:
        name = node.name
        dunder = name.startswith("__") and name.endswith("__")
        if not dunder and name not in named:
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            unnamed.setdefault(name, []).append(where)
    return unnamed


def test_every_function_is_named_outside_its_def():
    unnamed = _unnamed()
    stray = {n: w for n, w in unnamed.items() if n not in ALLOWED}
    assert not stray, (
        f"defined in src/ but named only by tests (or nowhere): {stray}; "
        "delete them, or add each to ALLOWED with its reason"
    )
    # the allowlist stays exact: an entry the program now names goes
    stale = sorted(set(ALLOWED) - set(unnamed))
    assert not stale, f"ALLOWED entries no longer needed: {stale}"
