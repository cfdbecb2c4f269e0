"""Tolerance lock: no verify case may pass at a looser gate than it has now.

The case lists are built (for --fast and --slow) but not run.  Every case
family (the id up to its first '[') must appear below, and every case's
tolerance must be at most the family's locked value.  Tightening a
tolerance needs no edit here; loosening one, or adding a family, needs an
edit of this table, which shows in the diff.
"""
import pytest

from eulerlab import verify

LOCKED = {
    "stuffle": {"stuffle-mixed": 1e-8, "stuffle-alt": 1e-8},
    "shuffle": {"shuffle-mixed": 1e-6, "shuffle-alt": 1e-6},
    "sumformulas": {
        "sumformula-plain": 1e-6, "sumformula-inner-bar": 1e-6,
        "sumformula-outer-bar": 1e-6, "sumformula-both-bars": 1e-6,
    },
    "closedforms": {
        "closed-plain-vs-direct": 1e-6, "closed-inner-bar-vs-direct": 1e-6,
        "closed-outer-bar-vs-direct": 1e-6, "closed-both-bars-vs-direct": 1e-6,
        "closed-plain-tcoef": 0.0, "closed-inner-bar-tcoef": 0.0,
        "closed-outer-bar-tcoef": 0.0, "closed-both-bars-tcoef": 0.0,
        "stuffle-closed-mixed": 0.0, "stuffle-closed-alt": 0.0,
    },
    "genfun": {
        "genfun-stuffle-finite": 1e-6, "genfun-shuffle-finite": 1e-6,
        "genfun-reduction-finite": 1e-6, "genfun-stuffle-tpart": 0.0,
        "genfun-shuffle-tpart": 0.0, "genfun-reduction-tpart": 0.0,
    },
    "hyp": {
        "saalschutz": 0.0, "poch-ratio": 0.0,
        "gauss": 1e-30, "kummer": 1e-30, "dougall-limit": 1e-30,
        "andrews-limit-s1": 1e-30, "andrews-limit-s2": 1e-30,
        "andrews-limit-s3": 1e-30,
        "odd-zeta-series": 1e-32,
    },
    "zagier": {
        "h-closed": 0.0, "hstar-closed": 0.0,
        "h-closed-vs-direct": 1e-15, "hstar-closed-vs-direct": 1e-15,
        "hstar-closed-vs-pilehrood": 1e-6, "hstar-closed-vs-closeddouble": 0.0,
        "sumident-H": 0.0, "sumident-Hstar": 0.0,
        "zetabar-from-hstar": 0.0, "zeta-from-hstar": 0.0,
        "zeta-from-hstar-vs-direct": 1e-6,
        "reflection": 1e-30, "diagonal-route": 1e-32,
    },
}


def test_every_suite_is_locked():
    assert set(LOCKED) == set(verify.SUITES) - {"all"}


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "slow"])
@pytest.mark.parametrize("suite", sorted(LOCKED))
def test_tolerances_never_loosen(suite, fast):
    n_max = verify.FAST_N_MAX if fast else verify.SLOW_N_MAX
    cases = verify._SUITE_BUILDERS[suite](n_max, fast)
    assert cases
    for case in cases:
        family = case.id.split("[")[0]
        assert family in LOCKED[suite], f"{suite}:{case.id}: new case family, lock its tolerance here"
        assert case.tolerance <= LOCKED[suite][family], \
            f"{suite}:{case.id}: tolerance {case.tolerance} looser than the lock"
