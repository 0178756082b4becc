import eulermod
from eulermod import congruences, exactmath, special


def test_package_exports_every_module_name_once():
    for module in (exactmath, special, congruences):
        for name in module.__all__:
            assert getattr(eulermod, name) is getattr(module, name)
            assert name in eulermod.__all__
    assert len(eulermod.__all__) == len(set(eulermod.__all__))
