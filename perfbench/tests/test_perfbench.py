"""Tests of the benchmark's own code: python3 -m pytest perfbench/tests"""
from __future__ import annotations

import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import checks, refs, speed, tracing, workloads  # noqa: E402
from perfbench.tracing import Span  # noqa: E402

SEED_STATE = checks.load_seed_state()


def perturb_digit(value: mpmath.mpf, digit: int = 25) -> mpmath.mpf:
    """value with one unit added in its `digit`-th significant digit."""
    with mpmath.workdps(60):
        exponent = int(mpmath.floor(mpmath.log10(abs(value))))
        return value + mpmath.sign(value) * mpmath.mpf(10) ** (exponent - digit + 1)


def hi_lo(value: mpmath.mpf):
    """A lookup output record [hi, lo, tail, error] for value."""
    with mpmath.workdps(60):
        hi = float(value)
        return [hi, float(value - hi), None, None]


def rounded(value: mpmath.mpf, digits: int = 32) -> mpmath.mpf:
    """value as the library would return it: correct to ~32 digits."""
    with mpmath.workdps(60):
        return mpmath.mpf(mpmath.nstr(value, digits))


# ---------------------------------------------------------------------------
# lookup request stream
# ---------------------------------------------------------------------------

def test_same_seed_gives_same_lookup_requests():
    assert workloads.lookup_requests(7, 20) == workloads.lookup_requests(7, 20)
    assert workloads.lookup_requests(7, 20) != workloads.lookup_requests(8, 20)


def test_lookup_mix_is_fixed_and_routed_like_the_cli():
    mix = workloads.load_mix()
    assert list(mix) == list(workloads.LOOKUP_KINDS)
    assert sum(share for share, _ in mix.values()) == pytest.approx(1.0)
    spaces = {kind: set(workloads.key_space(kind)) for kind in workloads.LOOKUP_KINDS}
    for seed in (1, 2):
        stream = workloads.lookup_requests(seed, 30)
        counts = {kind: sum(k == kind for k, _ in stream) for kind in workloads.LOOKUP_KINDS}
        for kind, (share, _repeat) in mix.items():
            assert counts[kind] == max(1, round(workloads.LOOKUP_RATE * 30 * share))
        for kind, key in stream:
            assert key in spaces[kind]
            if kind == "closed_form":
                r, s, rb, sb = key
                assert (r + s) % 2 == 1 and r + s <= 39 and (sb or s >= 2)
            elif kind.startswith("direct"):
                r, s, rb, sb = key
                assert (r + s) % 2 == 0 and r + s <= 40 and (sb or s >= 2)
            elif kind in ("h_closed", "hstar_closed"):
                assert sum(key) <= 10
            elif kind == "hyp_plus1" and len(key[0]) == 3:
                assert refs.is_dixon(*key[:2])
        # the mix's repeat shares are certify's, 0 to 0.99 by kind
        assert 0.5 < workloads.repeat_share(stream) < 0.9


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def test_double_sum_reference_identities():
    with mpmath.workdps(45):
        z = mpmath.zeta
        assert abs(refs.double_sum(1, 2, False, False) - z(3)) < 1e-40
        assert abs(refs.double_sum(1, 3, False, False) - mpmath.pi ** 4 / 360) < 1e-40
        assert abs(refs.double_sum(1, 1, False, True) - mpmath.ln2 ** 2 / 2) < 1e-40
        # stuffle: zeta(3-bar)^2 = 2 zeta(3-bar, 3-bar) + zeta(6)
        zb3 = refs.zeta_value(3, True)
        assert abs(refs.double_sum(3, 3, True, True) - (zb3 ** 2 - z(6)) / 2) < 1e-40


def test_double_table_matches_recomputation():
    table = refs.load_double_table()
    assert len(table) == len(list(refs.double_keys()))
    for key in ((1, 2, 0, 0), (7, 8, 1, 0), (13, 26, 0, 1), (20, 20, 1, 1)):
        with mpmath.workdps(45):
            assert abs(mpmath.mpf(table[key]) / refs.double_sum(*key) - 1) < 1e-38


def test_other_references():
    with mpmath.workdps(45):
        assert abs(refs.mzv_equal(2, 3) - mpmath.pi ** 6 / mpmath.factorial(7)) < 1e-40
        assert abs(refs.h_sum(0, 0, False) - mpmath.zeta(3)) < 1e-40
        assert abs(refs.h_sum(0, 0, True) - mpmath.zeta(3)) < 1e-40
        gauss = refs.hyp([Fraction(1, 3), Fraction(1, 4)], [Fraction(5, 3)], 1)
        assert abs(gauss - mpmath.hyp2f1(mpmath.mpf(1) / 3, mpmath.mpf(1) / 4, mpmath.mpf(5) / 3, 1)) < 1e-40
        assert abs(refs.hyp([1, Fraction(1, 2)], [Fraction(3, 2)], -1) - mpmath.pi / 4) < 1e-40
        with mpmath.workdps(20):  # Dixon against direct summation, at low precision
            a, b, c = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)
            direct = mpmath.hyper([0.5, mpmath.mpf(1) / 3, 0.2],
                                  [1 + 0.5 - mpmath.mpf(1) / 3, 1.3], 1)
            assert abs(refs.hyp([a, b, c], [1 + a - b, 1 + a - c], 1) - direct) < 1e-15


# ---------------------------------------------------------------------------
# every check flags a value perturbed in its 25th digit
# ---------------------------------------------------------------------------

def _thirty_digit_cases():
    table = refs.load_double_table()
    with mpmath.workdps(45):
        yield "zeta(3)", refs.zeta_value(3)
        yield "zeta(~44)", refs.zeta_value(44, True)
        yield "closed zeta(2,3)", mpmath.mpf(table[(2, 3, 0, 0)])
        yield "closed zeta(~1,~4)", mpmath.mpf(table[(1, 4, 1, 1)])
        yield "H(1,2)", refs.h_sum(1, 2, False)


@pytest.mark.parametrize("name,reference", list(_thirty_digit_cases()))
def test_digits30_check_flags_25th_digit(name, reference):
    assert checks.check("digits30", rounded(reference), reference).passed
    assert not checks.check("digits30", perturb_digit(reference), reference).passed


def test_series_and_lngamma_checks_flag_25th_digit():
    ref = refs.hyp([1, Fraction(1, 2)], [Fraction(3, 2)], -1)
    assert checks.check("series", rounded(ref), ref, tail=1e-30).passed
    assert not checks.check("series", perturb_digit(ref), ref, tail=1e-30).passed
    for x in ("7/3", "1/2", "157/4"):
        ref = refs.ln_gamma(Fraction(x))
        assert checks.check("lngamma", rounded(ref), ref).passed
        assert not checks.check("lngamma", perturb_digit(ref), ref).passed


def test_direct_check_flags_values_beyond_its_contract():
    # direct sums promise ~1e-15, so a 25th-digit change is inside the
    # contract; a change just beyond the tolerance is flagged
    ref = refs.double_sum(2, 2, False, False)
    assert checks.check("direct", ref + 5e-16, ref, tail=1e-16).passed
    assert not checks.check("direct", ref + 2e-15, ref, tail=1e-16).passed
    assert not checks.check("direct", ref + 3e-12, ref, tail=1e-12).passed


def test_certify_check_flags_a_loosened_tolerance_a_failed_and_a_missing_case():
    recorded = SEED_STATE["certify_tolerances"]
    cases = [{"id": cid, "pass": True, "residual": "0", "tolerance": tol}
             for cid, tol in recorded.items()]
    assert checks.check_certify(cases, SEED_STATE)[:2] == (966, 0)
    cid = "hyp:gauss[00]"
    tol = Decimal(recorded[cid])
    looser = str(tol + tol.scaleb(-24))  # 25th significant digit raised
    bad = [dict(c, tolerance=looser) if c["id"] == cid else c for c in cases]
    assert checks.check_certify(bad, SEED_STATE)[1] == 1
    bad = [dict(c, **{"pass": False}) if c["id"] == cid else c for c in cases]
    assert checks.check_certify(bad, SEED_STATE)[1] == 1
    assert checks.check_certify(cases[1:], SEED_STATE)[:2] == (966, 1)


def _table_rows(k, table):
    rows = []
    for r in range(1, k):
        s = k - r
        for sb in (0, 1):
            for rb in (0, 1):
                convergent = sb or s >= 2
                route = checks._CLOSED_ROUTE[(rb, sb)] + ("" if convergent else "-regularized")
                value = mpmath.nstr(mpmath.mpf(table[(r, s, rb, sb)]), 30) if convergent else "0.5"
                rows.append({"r": r, "s": s, "bar_r": rb, "bar_s": sb, "value": value, "route": route})
    return rows


def test_table_check_flags_25th_digit_and_a_wrong_route():
    table = refs.load_double_table()
    with mpmath.workdps(45):
        rows = _table_rows(5, table)
    assert checks.check_table_rows("ds5", rows, table, SEED_STATE)[1] == 0
    with mpmath.workdps(45):
        bad = [dict(row) for row in rows]
        bad[0]["value"] = mpmath.nstr(perturb_digit(mpmath.mpf(rows[0]["value"])), 30)
    assert checks.check_table_rows("ds5", bad, table, SEED_STATE)[1:3] == (1, 1)
    bad = [dict(row) for row in rows]
    bad[0]["route"] = "direct[n=100000]"
    assert checks.check_table_rows("ds5", bad, table, SEED_STATE)[1:3] == (1, 1)
    assert checks.check_table_rows("ds5", rows[:-1], table, SEED_STATE)[1] == len(rows)


def test_table_check_holds_recorded_defects_to_their_record():
    table = refs.load_double_table()
    recorded = SEED_STATE["known_defects"]["closed_form"]["1 12 0 0"]
    for factor, unknown_expected in ((1, 0), (3, 1)):
        with mpmath.workdps(45):
            rows = _table_rows(13, table)
            rows[0]["value"] = mpmath.nstr(mpmath.mpf(table[(1, 12, 0, 0)]) * (1 + mpmath.mpf(factor * recorded)), 30)
        assert checks.check_table_rows("ds13", rows, table, SEED_STATE)[1:3] == (1, unknown_expected)


def test_lookup_check_flags_25th_digit_and_ratchets_known_defects():
    table = refs.load_double_table()
    reference = checks.LookupReference(table)
    stream = [("zeta", (5,)), ("closed_form", (2, 3, 0, 0)), ("closed_form", (13, 26, 1, 0))]
    exact = []
    for kind, key in stream:
        _route, ref = reference(kind, key)
        exact.append(hi_lo(rounded(ref)))
    failed, unknown, _ = checks.check_lookup(stream[:2], exact[:2], reference, SEED_STATE)
    assert (failed, unknown) == (0, 0)
    bad = []
    for kind, key in stream[:2]:
        bad.append(hi_lo(perturb_digit(reference(kind, key)[1])))
    assert checks.check_lookup(stream[:2], bad, reference, SEED_STATE)[:2] == (2, 2)
    # (13, 26, 1, 0) is a recorded seed-state defect: at its recorded error
    # it fails but keeps the run correct; at twice that error it does not
    recorded = SEED_STATE["known_defects"]["closed_form"]["13 26 1 0"]
    ref = reference(*stream[2])[1]
    with mpmath.workdps(45):
        for factor, unknown_expected in ((1, 0), (2, 1)):
            out = [hi_lo(ref * (1 + mpmath.mpf(factor * recorded)))]
            assert checks.check_lookup(stream[2:], out, reference, SEED_STATE)[:2] == (1, unknown_expected)


def _series_output(ref, relative):
    """A lookup output off by ``relative`` with tail_estimate 0, so that the
    tolerance is the 1e-30 relative floor."""
    with mpmath.workdps(45):
        out = hi_lo(ref * (1 + mpmath.mpf(relative)))
    out[2] = 0.0
    return out


def test_lookup_check_flags_a_key_that_passed_at_seed_state():
    reference = checks.LookupReference(refs.load_double_table())
    recorded = SEED_STATE["known_defects"]["hyp_minus1"]
    key = next(k for k in workloads.key_space("hyp_minus1") if checks.defect_key(*k) not in recorded)
    req = ("hyp_minus1", key)
    out = _series_output(reference(*req)[1], 5e-30)  # 5x its tolerance
    assert checks.check_lookup([req], [out], reference, SEED_STATE)[:2] == (1, 1)


def test_lookup_check_holds_recorded_series_keys_to_their_record():
    reference = checks.LookupReference(refs.load_double_table())
    recorded = SEED_STATE["known_defects"]["hyp_plus1"]
    assert recorded, "evaluate at +1 misses its tail_estimate on some keys at seed state"
    key = next(k for k in workloads.key_space("hyp_plus1") if checks.defect_key(*k) in recorded)
    req = ("hyp_plus1", key)
    error = recorded[checks.defect_key(*key)]
    ref = reference(*req)[1]
    for factor, unknown_expected in ((1, 0), (2, 1)):
        # a recorded failure misses the 1e-30 floor too, so error > 1e-30
        out = _series_output(ref, factor * error)
        assert checks.check_lookup([req], [out], reference, SEED_STATE)[:2] == (1, unknown_expected)


def test_lookup_check_counts_exceptions():
    reference = checks.LookupReference(refs.load_double_table())
    out = [[0.0, 0.0, None, "DomainError: boom"]]
    failed, unknown, messages = checks.check_lookup([("zeta", (3,))], out, reference, SEED_STATE)
    assert (failed, unknown) == (1, 1) and "boom" in messages[0]


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _span(sid, parent, name, start, end):
    # self time is taken from the thread CPU clock; give wall clock other values
    return Span(sid, parent, name, None, 10 * start, 10 * end + 3, start, end, None)


def test_self_times_on_a_hand_built_tree():
    # A [0, 100] > B [10, 40] > D [15, 25];  A > C [50, 60];  E [200, 230] is a root
    spans = [_span(3, 1, "hpreal.exp_dd", 15, 25), _span(1, 0, "euler_sums.closed_form", 10, 40),
             _span(2, 0, "zeta_core.zeta", 50, 60), _span(0, -1, "verify.run_suite", 0, 100),
             _span(4, -1, "zeta_core.zeta", 200, 230)]
    assert tracing.self_times(spans) == {0: 60, 1: 20, 2: 10, 3: 10, 4: 30}
    layers = tracing.layer_self_seconds(spans)
    assert layers == pytest.approx({"verify": 60e-9, "euler_sums": 20e-9,
                                    "zeta_core": 40e-9, "hpreal": 10e-9})


def test_function_totals_count_nested_calls_of_one_function_once():
    spans = [_span(1, 0, "zeta_core.zeta", 10, 20), _span(0, -1, "zeta_core.zeta", 0, 50),
             _span(2, -1, "zeta_core.zeta", 60, 70)]
    assert tracing.function_totals(spans) == pytest.approx({"zeta_core.zeta": 60e-9})


def test_spans_record_calls_between_modules():
    """A traced pass sees closed_form -> closed_plain -> zeta, nested."""
    import subprocess

    src = Path(__file__).resolve().parents[2] / "src"

    code = (
        "import sys; sys.path[:0] = [{root!r}, {src!r}]\n"
        "from perfbench import tracing\n"
        "rec = tracing.SpanRecorder(); tracing.install_spans(rec)\n"
        "from eulerlab import euler_sums as es\n"
        "es.closed_form(es.DoubleIndex(2, 3))\n"
        "by_id = {{s.sid: s for s in rec.spans}}\n"
        "print(sorted({{(by_id[s.parent].name if s.parent >= 0 else '-', s.name) for s in rec.spans}}))\n"
    ).format(root=str(src.parent), src=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert "('-', 'euler_sums.closed_form')" in out
    assert "('euler_sums.closed_form', 'euler_sums.closed_plain')" in out
    assert "'zeta_core.zeta')" in out


# ---------------------------------------------------------------------------
# speed reference
# ---------------------------------------------------------------------------

def test_scale_uses_chunks_inside_a_long_span_else_the_nearest():
    ref = speed.REFERENCE_S
    # chunks every 0.1 s: 2 ms each up to t = 2, then 1 ms
    samples = [(0.1 * i, 2 * ref if i < 20 else ref) for i in range(60)]
    assert speed.scale(samples, 0.0, 1.9) == pytest.approx(0.5)  # 20 chunks inside
    assert speed.scale(samples, 4.0, 5.9) == pytest.approx(1.0)
    # a short span between chunks takes the 9 closest: 5 slow, 4 fast around t = 1.95
    assert speed.scale(samples, 1.94, 1.96) == pytest.approx(0.5)
    assert speed.scale(samples, 2.04, 2.06) == pytest.approx(1.0)
    # past the last chunk: the last 9
    assert speed.scale(samples, 9.0, 9.1) == pytest.approx(1.0)
    assert speed.scale(samples[:3], 0.0, 0.01) == pytest.approx(0.5)


def test_pass_times_are_scaled_span_by_span():
    from perfbench import run

    ref = speed.REFERENCE_S
    samples = [(0.1 * i, 2 * ref if i < 20 else ref) for i in range(60)]
    result = {"speed": samples, "spans": [[0.5, 1.0], [4.0, 4.002]], "wall_s": 0.502, "cpu_s": 0.251}
    scaled = run.at_reference_speed(result)
    assert scaled["latencies_ms"] == pytest.approx([250.0, 2.0])
    assert scaled["wall_s"] == pytest.approx(0.252)
    assert scaled["cpu_s"] == pytest.approx(0.251 * 0.252 / 0.502)
    probe = {"setup_s": 0.3, "setup_speed": [(0.01 * i, 1.5 * ref) for i in range(9)]}
    assert run.setup_at_reference_speed(probe) == pytest.approx(0.2)


def test_lookup_percentiles_leave_out_the_warmup():
    stream = workloads.lookup_requests(1, 30)
    assert workloads.warmup_count(stream) == 500
    assert len(stream) - workloads.warmup_count(stream) >= 1000  # 10 samples beyond p99


def test_benchmark_json_names_the_metrics_run_py_prints():
    import json

    from perfbench import run

    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
