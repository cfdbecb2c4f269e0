import hashlib
from collections import Counter

from eulerlab import euler_sums, verify, zagier
from eulerlab.euler_sums import _HEADS
from conftest import clear_direct_caches


def test_each_suite_takes_one_head_pass_per_star(monkeypatch):
    # a pass counts when it runs a head not cached yet; the suite of a pass is
    # the suite of the case running at the time; every pass runs at --fast's n_max
    running, passes = [None], []
    heads = euler_sums._heads

    def counted(keys, star, n_max):
        assert n_max == verify.FAST_N_MAX
        if {(*key, star, n_max) for key in keys} - _HEADS.keys():
            passes.append((running[0], star))
        return heads(keys, star, n_max)

    def tagged(name, build):
        return lambda n_max, fast: [(cid, tol, lambda fn=fn: (running.__setitem__(0, name), fn())[1])
                                    for cid, tol, fn in build(n_max, fast)]

    monkeypatch.setattr(euler_sums, "_heads", counted)
    monkeypatch.setattr(zagier, "_heads", counted)  # h_directs' batches
    for name, build in list(verify._SUITE_BUILDERS.items()):
        monkeypatch.setitem(verify._SUITE_BUILDERS, name, tagged(name, build))
    for name in ("all", *verify._SUITE_BUILDERS):
        clear_direct_caches()
        passes.clear()
        assert verify.run_suite(name, fast=True).all_passed
        # one pass per (suite, star) that has sums to run; hyp takes no direct sums
        assert max(Counter(passes).values(), default=0) == 1 or name == "hyp", (name, passes)
        if name == "all":  # sumformulas and genfun find all their sums cached
            assert passes == [("stuffle", False), ("shuffle", False), ("closedforms", False),
                              ("zagier", False), ("zagier", True)]
    clear_direct_caches()


def _degenerate(a, b, c, n) -> bool:
    """Some pole or zero parameter of the grid's checks reaches 0 within n steps."""
    return any(l + i == 0 for l in (c, 1 + a + b - c - n, c - a - b, 1 + a - b, 1 + a - c)
               for i in range(n))


def test_rational_grids_are_pinned_and_avoid_degeneracies():
    grids = [verify._rational_grid(seed, 200) for seed in (20250101, 20250202)]
    assert not any(_degenerate(*point) for grid in grids for point in grid)
    digest = hashlib.sha256(repr(grids).encode()).hexdigest()
    assert digest == "1f1ba1b765dbfc7dda804528626010c2d732780858b673edfc82f51d4dfb108b"
