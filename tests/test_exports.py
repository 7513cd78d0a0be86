"""The package's public export list."""

import fadestream


def test_every_export_resolves_and_the_list_is_sorted():
    assert all(hasattr(fadestream, name) for name in fadestream.__all__)
    assert fadestream.__all__ == sorted(set(fadestream.__all__))  # unique, too
