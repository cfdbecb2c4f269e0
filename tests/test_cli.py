import csv
import pytest
import io
import json
import subprocess
import sys
import time
from fractions import Fraction

from eulerlab import euler_sums as es
from eulerlab import cli
from eulerlab.cli import build_parser, main
from eulerlab.hpreal import parse_decimal, to_decimal
from conftest import ZETA3_50, clear_direct_caches


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_compute_zeta3(capsys):
    code, out, _ = run_cli(["compute", "zeta", "3"], capsys)
    assert code == 0
    assert abs(parse_decimal(out.strip()) - parse_decimal(ZETA3_50)) < Fraction(1, 10 ** 28)


def test_compute_mzv_bar_notation(capsys):
    code, out, _ = run_cli(["compute", "mzv", "1", "~2"], capsys)
    assert code == 0
    expected = parse_decimal(ZETA3_50) / 8
    assert abs(parse_decimal(out.strip()) - expected) < Fraction(1, 10 ** 25)


def test_compute_hsum_star_matches_zeta3(capsys):
    code, out1, _ = run_cli(["compute", "hsum", "--star", "0", "0"], capsys)
    assert code == 0
    code, out2, _ = run_cli(["compute", "zeta", "3"], capsys)
    assert code == 0
    assert abs(parse_decimal(out1.strip()) - parse_decimal(out2.strip())) < Fraction(1, 10 ** 28)


def test_compute_depth3_mzv(capsys):
    code, out, _ = run_cli(["compute", "mzv", "2", "3", "2", "--digits", "12"], capsys)
    assert code == 0
    float(out.strip())


def test_compute_hyp(capsys):
    code, out, _ = run_cli(
        ["compute", "hyp", "--upper", "1,1/2", "--lower", "3/2", "--x", "-1", "--digits", "20"],
        capsys)
    assert code == 0
    pi_quarter = parse_decimal("0.785398163397448309615660845819875721")
    assert abs(parse_decimal(out.strip()) - pi_quarter) < Fraction(1, 10 ** 19)


def test_divergent_requests_exit_3(capsys):
    for args in (["compute", "zeta", "1"],
                 ["compute", "zeta", "0"],
                 ["compute", "mzv", "2", "1"]):
        code, _, err = run_cli(args, capsys)
        assert code == 3, args
        assert "reg" in err or "closed" in err  # names the regularized alternative


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, _ = run_cli(["compute", "mzv", "x"], capsys)
    assert code == 2
    code, _, _ = run_cli(["compute", "mzv", "~1", "2", "3"], capsys)
    assert code == 2  # bars beyond depth 2
    code, _, _ = run_cli(["table", "doublesums", "45"], capsys)
    assert code == 2
    code, _, _ = run_cli(["compute", "hsum", "x", "1"], capsys)
    assert code == 2
    code, _, _ = run_cli(["compute", "mzv", "2", "2", "--n-max", "10000001"], capsys)
    assert code == 2  # above the direct-summation cap
    # every --n-max is checked up front, whether or not a direct sum runs
    for argv in (["compute", "zeta", "3", "--n-max", "5"], ["compute", "mzv", "2", "~3", "--n-max", "99"],
                 ["compute", "hsum", "1", "1", "--n-max", "3"], ["table", "doublesums", "5", "--n-max", "5"],
                 ["table", "doublesums", "4", "--n-max", "5"], ["table", "hsums", "3", "--n-max", "20000000"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and "n_max" in err, argv
    code, _, _ = run_cli(["compute", "zeta", "3", "--digits", "33"], capsys)
    assert code == 2  # more digits than a double-double holds
    code, _, _ = run_cli(["table", "hsums", "2", "--digits", "0"], capsys)
    assert code == 2
    code, _, _ = run_cli(["compute", "hyp", "--upper", "1,1", "--lower", "1e999", "--x", "1"], capsys)
    assert code == 2  # parameter beyond the double range
    code, out, _ = run_cli(["compute", "hyp", "--upper", "1/3,1/3", "--lower", "1e308", "--x", "1"], capsys)
    assert code == 0 and out.strip() == "1.00000000000000000000000000000"  # Gauss: 1 + O(1e-309)
    code, _, _ = run_cli(["compute", "hyp", "--upper=-1e999,1", "--lower", "2", "--x", "1"], capsys)
    assert code == 2  # terminating length beyond any index
    code, _, _ = run_cli(["compute", "hyp", "--upper=-1001,1/3", "--lower", "2/7", "--x", "1"], capsys)
    assert code == 2  # one term above the terminating-series cap
    start = time.perf_counter()
    code, _, err = run_cli(["compute", "hyp", "--upper=-1000,0." + "3" * 60,
                            "--lower", "2/7", "--x", "1"], capsys)
    assert code == 2 and "too large" in err  # 1000 terms, but a 60-digit parameter
    assert time.perf_counter() - start < 0.5  # rejected before any term
    # an output path that cannot be written, in a directory that does not exist
    missing = tmp_path / "nonexistent"
    for argv in (["table", "doublesums", "3", "--out", str(missing / "x.csv")],
                 ["verify", "genfun", "--json", str(missing / "x.json")]):
        code, _, err = run_cli(argv, capsys)
        assert code == 2 and "cannot write" in err, argv


def test_huge_parameter_sizes_stay_fast(capsys):
    # the +1 and -1 sums round each parameter to a bounded size before
    # summing, so a 330 000-bit denominator costs no more than 1/3
    for x in ("1", "-1"):
        start = time.perf_counter()
        code, out, _ = run_cli(["compute", "hyp", "--upper", "1e-100000,3e-100000",
                                "--lower", "1", "--x", x], capsys)
        assert code == 0 and out.strip() == "1.00000000000000000000000000000"
        assert time.perf_counter() - start < 1.0
    code, out, _ = run_cli(["compute", "hyp", "--upper", "0." + "3" * 70 + ",1/4",
                            "--lower", "5/3", "--x", "1"], capsys)
    _, third, _ = run_cli(["compute", "hyp", "--upper", "1/3,1/4", "--lower", "5/3", "--x", "1"], capsys)
    assert code == 0 and out == third


def test_main_reuses_one_parser(capsys):
    # build_parser gives a fresh parser each call; main parses every call with
    # one parser, and a failed parse leaves it as it was
    assert build_parser() is not build_parser()
    first = run_cli(["compute", "hsum", "--star", "0", "0"], capsys)
    assert run_cli(["compute", "zeta", "3", "--digits", "33"], capsys)[0] == 2
    assert run_cli(["compute", "hsum", "--star", "0", "0"], capsys) == first
    assert cli._parser() is cli._parser()


def test_unknown_suite_exits_2(capsys):
    code = main(["verify", "nonsense"])
    capsys.readouterr()
    assert code == 2


def test_verify_suite_json(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(["verify", "stuffle", "--fast", "--json", str(report_path)], capsys)
    assert code == 0
    assert "pass" in out
    data = json.loads(report_path.read_text())
    assert data["suite"] == "stuffle"
    assert isinstance(data["wall_time_ms"], int)
    assert all(c["pass"] for c in data["cases"])
    for c in data["cases"]:
        # decimal strings, never binary floats
        parse_decimal(c["residual"])
        parse_decimal(c["tolerance"])
        assert abs(parse_decimal(c["lhs"]) - parse_decimal(c["rhs"])) <= \
            parse_decimal(c["tolerance"]) + Fraction(1, 10 ** 27)
    ids = [c["id"] for c in data["cases"]]
    assert ids == sorted(ids)


def test_verify_reports_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["verify", "stuffle", "--json", str(p1), "--jobs", "1"], capsys)[0] == 0
    assert run_cli(["verify", "stuffle", "--json", str(p2), "--jobs", "4"], capsys)[0] == 0
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    assert a["cases"] == b["cases"]  # ordering and digits independent of pool


def test_table_doublesums_csv_roundtrip(capsys):
    code, out, _ = run_cli(["table", "doublesums", "5", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,s,bar_r,bar_s,value,route"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 16  # 4 splits x 4 bar patterns
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=lines[0].split(","), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    assert buf.getvalue() == out  # byte-identical re-emission


def test_table_doublesums_even_weight_marks_divergent(capsys):
    code, out, _ = run_cli(["table", "doublesums", "4", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    divergent = [r for r in rows if r["route"] == "divergent"]
    assert divergent and all(r["value"] == "NA" for r in divergent)
    assert all(r["bar_s"] == "0" and r["s"] == "1" for r in divergent)


def test_table_doublesums_batch_matches_single_sums(capsys):
    # an even-weight table runs its direct sums as one batch of head passes at
    # the library's default truncation (not verify's); each row holds what
    # double_direct gives for its index alone
    clear_direct_caches()
    code, out, _ = run_cli(["table", "doublesums", "6", "--digits", "32"], capsys)
    assert code == 0
    rows = [row for row in csv.DictReader(io.StringIO(out)) if row["route"] != "divergent"]
    assert len(rows) == 18  # 5 splits x 4 bar patterns, less the two with s = 1 unbarred
    for row in rows:
        clear_direct_caches()
        idx = es.DoubleIndex(int(row["r"]), int(row["s"]), row["bar_r"] == "1", row["bar_s"] == "1")
        assert row["route"] == "direct[n=100000]", row
        assert row["value"] == to_decimal(es.double_direct(idx, es.DEFAULT_N_MAX).value, 32), row


def test_table_hsums_json(capsys):
    code, out, _ = run_cli(["table", "hsums", "3", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    rows = data["rows"]
    assert len(rows) == 12  # a+b <= 2, both star flags
    z3 = next(r for r in rows if r["a"] == 0 and r["b"] == 0 and r["star"] == 0)
    assert abs(parse_decimal(z3["value"]) - parse_decimal(ZETA3_50)) < Fraction(1, 10 ** 28)


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "eulerlab.cli", "compute", "zetabar", "1", "--digits", "20"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("-0.6931471805599453094")


def test_precision_check_env_var():
    # the embedded constants are validated on every import
    proc = subprocess.run(
        [sys.executable, "-c", "import eulerlab"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.slow
def test_verify_all_fast_under_a_minute(capsys):
    import time

    start = time.monotonic()
    code, out, _ = run_cli(["verify", "all", "--fast"], capsys)
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 60.0, elapsed
    assert "0 failed" in out


def test_verify_failure_exits_1(capsys, monkeypatch):
    from eulerlab import cli as cli_mod
    from eulerlab.verify import CaseResult, VerifyReport

    def fake_suite(name, fast=True, jobs=None):
        return VerifyReport(suite=name, cases=[
            CaseResult(id="made-up", lhs="1.0", rhs="0.0",
                       residual="1.0", tolerance="0.5", passed=False)
        ], wall_time_ms=1)

    monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
    code, out, _ = run_cli(["verify", "stuffle"], capsys)
    assert code == 1
    assert "FAIL" in out
