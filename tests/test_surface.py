"""The public surface: every name in qwgeom.__all__ has a reader in the
package, the demos or the acceptance gates, not in the unit tests alone."""

import ast
from pathlib import Path

import qwgeom

ROOT = Path(__file__).resolve().parent.parent

# Public names with no such reader, each kept for the reason given.
KEPT_UNREAD = {
    "berry_overlap_phase": "the paper's defining overlap phase "
                           "arg <psi_ini|psi_final>; the Berry phase about "
                           "coin-angle loops (ROADMAP item 20) will read it",
    "zak_noncommuting_integrand": "perfbench's Zak workload reads it until "
                                  "the benchmark refresh (ROADMAP item 1)",
    "trajectory": "the only public per-step reader of a walk; it duplicates "
                  "no other path",
}


def _loaded_names():
    """Names loaded as a Name or an Attribute in the package modules
    (not __init__), the demos and the acceptance gates; imports and
    docstrings do not count."""
    files = [p for p in (ROOT / "src" / "qwgeom").glob("*.py")
             if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    loaded = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
    return loaded


def test_every_public_name_has_a_reader_outside_the_unit_tests():
    public = set(qwgeom.__all__) - {"__version__"}
    unread = public - _loaded_names()
    assert unread - KEPT_UNREAD.keys() == set(), "read only by the unit tests"
    # A kept name that gained a reader leaves the list.
    assert KEPT_UNREAD.keys() <= unread
