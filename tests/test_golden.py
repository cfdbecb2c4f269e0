import golden


def test_tables_without_direct_sums_keep_their_recorded_bytes():
    # re-record with `PYTHONPATH=src python tests/golden.py` (see tests/golden.py);
    # the --slow digest is left to CI's `tests/golden.py --check-slow`
    got, want = golden.digests(slow=False), golden.recorded()
    want.pop(golden.VERIFY_SLOW)
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []
