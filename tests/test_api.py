"""The package namespace: every exported name resolves.

Oracle key: [TRIVIAL] `from nilflat import *` fails on a stale `__all__`
entry, so removed API cannot linger in the export list.
"""

import nilflat


def test_star_import_resolves_all():
    namespace = {}
    exec("from nilflat import *", namespace)
    for name in nilflat.__all__:
        assert name in namespace
        assert namespace[name] is getattr(nilflat, name)
    assert len(set(nilflat.__all__)) == len(nilflat.__all__)
