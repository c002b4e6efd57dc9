"""The package's export list names each public name once, and each resolves."""

import scop


def test_every_exported_name_resolves_once():
    assert len(scop.__all__) == len(set(scop.__all__))
    missing = [name for name in scop.__all__ if not hasattr(scop, name)]
    assert missing == []
