"""The package's public names all resolve."""

import technet


def test_every_export_is_importable():
    assert [name for name in technet.__all__ if not hasattr(technet, name)] == []
    namespace: dict = {}
    exec("from technet import *", namespace)
    assert set(technet.__all__) <= namespace.keys()
