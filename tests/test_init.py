import qq22


def test_every_exported_name_resolves():
    missing = [name for name in qq22.__all__ if not hasattr(qq22, name)]
    assert missing == []
    assert len(set(qq22.__all__)) == len(qq22.__all__)
