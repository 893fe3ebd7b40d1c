"""The package's exports: every name in ``__all__`` is bound, once, in
sorted order, so a name whose function is gone cannot stay exported."""

import ruleproofs


def test_every_export_is_bound():
    assert [name for name in ruleproofs.__all__ if not hasattr(ruleproofs, name)] == []


def test_exports_are_sorted_once_each():
    assert ruleproofs.__all__ == sorted(set(ruleproofs.__all__))
