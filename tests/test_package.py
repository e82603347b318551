"""The package's export list."""

import ucbench


def test_every_exported_name_resolves():
    assert [n for n in ucbench.__all__ if not hasattr(ucbench, n)] == []
