"""The package's public surface."""

import types

import poncelet


def test_all_lists_names_not_modules():
    assert len(set(poncelet.__all__)) == len(poncelet.__all__)
    for name in poncelet.__all__:
        assert not isinstance(getattr(poncelet, name), types.ModuleType), name
