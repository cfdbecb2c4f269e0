import golden


def test_tables_without_direct_sums_keep_their_recorded_bytes():
    # re-record with `PYTHONPATH=src python tests/golden.py` (see tests/golden.py)
    got, want = golden.digests(), golden.recorded()
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []
