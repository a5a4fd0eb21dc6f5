"""The package's public names resolve, so a deleted name cannot stay exported."""

import optsmp


def test_every_exported_name_resolves():
    assert optsmp.__all__
    missing = [name for name in optsmp.__all__ if not hasattr(optsmp, name)]
    assert not missing, f"optsmp.__all__ names missing attributes: {missing}"
    assert len(set(optsmp.__all__)) == len(optsmp.__all__)
