import qunit_bell


def test_lazy_exports_resolve_to_their_modules():
    for module, names in qunit_bell._EXPORTS.items():
        for name in names:
            assert getattr(qunit_bell, name).__module__ == f"qunit_bell.{module}", name
    assert len(qunit_bell.__all__) == len(set(qunit_bell.__all__))
    assert set(qunit_bell.__all__) <= set(dir(qunit_bell))
    for gone in ("IntermediateFamily", "NoiseFamily"):
        assert gone not in dir(qunit_bell)
    assert not hasattr(qunit_bell.noise, "NoiseFamily")
