import stationary_light


def test_public_names_resolve_and_are_unique():
    names = stationary_light.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(stationary_light, name)]
    assert missing == []
