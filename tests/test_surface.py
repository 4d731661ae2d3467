"""The public surface: every name in qwgeom.__all__, every public
module-level function and class and every public method of a public
class in the package has a reader in the package, the demos or the
acceptance gates, not in the unit tests alone."""

import ast
from pathlib import Path

import qwgeom

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qwgeom"

# Public names with no such reader, each kept for the reason given.
KEPT_UNREAD = {
    "berry_overlap_phase": "the paper's defining overlap phase "
                           "arg <psi_ini|psi_final>; the Berry phase about "
                           "coin-angle loops (ROADMAP item 20) will read it",
    "zak_noncommuting_integrand": "perfbench's Zak workload reads it until "
                                  "the benchmark refresh (ROADMAP item 1)",
    "trajectory": "the only public per-step reader of a walk; it duplicates "
                  "no other path",
    "distribution_csv": "perfbench's walk workload and its tracer read it "
                        "until the benchmark refresh (ROADMAP item 1)",
    "worker_count": "perfbench reads it as utils.workers until the "
                    "benchmark refresh (ROADMAP item 1)",
}


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _public(name):
    return not name.startswith("_")


def _surface():
    """(names, methods): the public module-level functions and classes of
    the package, and the public methods of its public classes as
    'Class.method'."""
    names, methods = set(), set()
    for path in PACKAGE.glob("*.py"):
        for node in _parse(path).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or not _public(node.name)):
                continue
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                methods.update(f"{node.name}.{item.name}" for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and _public(item.name))
    return names, methods


def _loads():
    """(names, attributes): the identifiers loaded as a Name and as an
    Attribute in the package modules (not __init__), the demos and the
    acceptance gates; imports and docstrings do not count."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    names, attributes = set(), set()
    for path in files:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attributes.add(node.attr)
    return names, attributes


def test_every_public_name_has_a_reader_outside_the_unit_tests():
    names, methods = _surface()
    names |= set(qwgeom.__all__) - {"__version__"}
    loaded, attributes = _loads()
    # A method is read only through an attribute: a parameter or local of
    # the same name is not a reader.
    unread = {n for n in names if n not in loaded | attributes}
    unread |= {m for m in methods if m.split(".")[1] not in attributes}
    extra = sorted(unread - KEPT_UNREAD.keys())
    assert not extra, f"read only by the unit tests: {extra}"
    # A kept name that no longer exists, or that gained a reader, leaves
    # the list.
    assert KEPT_UNREAD.keys() <= names
    assert KEPT_UNREAD.keys() <= unread
