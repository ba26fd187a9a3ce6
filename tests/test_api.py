import fracsurf


def test_every_export_resolves_once_in_sorted_order():
    names = fracsurf.__all__
    missing = [name for name in names if not hasattr(fracsurf, name)]
    assert missing == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
