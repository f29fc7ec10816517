import ellrank


def test_all_exports_resolve():
    # every name the package exports is bound, so `from ellrank import *`
    # and ellrank.<name> work after an export is removed
    assert [name for name in ellrank.__all__ if not hasattr(ellrank, name)] == []
    assert len(set(ellrank.__all__)) == len(ellrank.__all__)
