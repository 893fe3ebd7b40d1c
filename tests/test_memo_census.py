"""Every process-level memo of the package, by name. A memo keeps what it
has computed for the life of the process, so each one is a decision: a
change that adds a memo names it here, and one that drops a memo drops
its name."""

import importlib
import pkgutil

import ruleproofs

MEMOS = {
    "ruleproofs.theory": {"_entity_clause", "_variable_clause", "_layout_positions",
                          "parse_theory_line"},
    "ruleproofs.proofgraph": {"node_kind", "node_sort_key", "_measured_depth"},
}


def bound_memos() -> dict[str, set[str]]:
    """The ``functools`` cache wrappers (``lru_cache`` and ``cache``) that
    each package module defines at module level."""
    found: dict[str, set[str]] = {}
    modules = [ruleproofs.__name__] + [f"{ruleproofs.__name__}.{m.name}"
                                       for m in pkgutil.iter_modules(ruleproofs.__path__)]
    for name in modules:
        for attr, obj in vars(importlib.import_module(name)).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == name:
                found.setdefault(name, set()).add(attr)
    return found


def test_the_package_keeps_exactly_the_named_memos():
    assert bound_memos() == MEMOS
