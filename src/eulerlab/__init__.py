"""eulerlab: high-precision zeta values, alternating double Euler sums,
nested 2-3-2 sums, hypergeometric summation identities, and a verification
harness that certifies all of them numerically.
"""
from __future__ import annotations

from .hpreal import (
    DomainError,
    ExtReal,
    bernoulli,
    binom,
    const_ln2,
    const_pi,
    to_decimal,
)
from .zeta_core import (
    SeriesResult,
    ZetaPoly,
    zeta,
    zeta_bar,
    zeta_bar_direct,
    zeta_reg,
)
from .euler_sums import (
    DoubleIndex,
    closed_bar_both,
    closed_bar_r,
    closed_bar_s,
    closed_form,
    closed_plain,
    double_direct,
    sum_formula_check,
)
from .genfun import (RELATIONS, build, shuffle_check, stuffle_check, stuffle_closed_check,
                     substitute, verify_relations)
from .hypergeom import (
    ConvClass,
    HypSpec,
    check_andrews_limit,
    check_dougall_limit,
    check_gauss,
    check_kummer_type,
    check_odd_zeta_series,
    check_poch_ratio,
    check_saalschutz,
    classify,
    evaluate,
    ln_gamma,
    pochhammer,
)
from .zagier import (
    HIndex,
    eval_F,
    eval_Fstar,
    h_closed,
    h_direct,
    h_single,
    hstar_closed,
    hstar_pilehrood,
    sum_identities,
    zeta_bar_odd_from_hstar,
    zeta_from_hstar,
)
from .verify import VerifyReport, run_suite

__version__ = "1.0.0"
