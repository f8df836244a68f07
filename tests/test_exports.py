"""The package export list: every name resolves, once, in sorted order."""

import cdkit


def test_all_names_resolve_once_and_sorted():
    names = cdkit.__all__
    missing = [name for name in names if not hasattr(cdkit, name)]
    assert missing == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
