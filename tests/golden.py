"""sha256 digests of the outputs that take no direct sum, so that they are
the same on every platform: the CSV of each odd-weight
`eulerlab table doublesums k` (k = 3, 5, ..., 39) and of `table hsums 20`,
and the cases of `eulerlab verify all --fast` and of `verify all --slow`
outside the families that take a direct sum (README's list: the
closed-closed, hypergeometric and Zagier closed-form families).
tests/golden.json records them.  tests/test_golden.py checks all but the
--slow digest, which takes the whole --slow certificate; CI checks that one
on the report of the --slow run it makes anyway, and writes nothing:

    eulerlab verify all --slow --json slow.json
    python tests/golden.py --check-slow slow.json

A change that alters these bytes on purpose re-records them, and this prints
which outputs changed:

    PYTHONPATH=src python tests/golden.py
"""
import hashlib
import json
import os
import re
import sys
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
TABLES = [("doublesums", k) for k in range(3, 40, 2)] + [("hsums", 20)]
# the families whose cases take a direct sum, so whose digits may differ by CPU
DIRECT_FAMILIES = re.compile(r".*-vs-direct|hstar-closed-vs-pilehrood|stuffle-mixed|stuffle-alt"
                             r"|shuffle-.*|sumformula-.*|genfun-.*-finite")
VERIFY = "verify all --fast, cases without a direct sum"
VERIFY_SLOW = "verify all --slow, cases without a direct sum"


def _family(case_id: str) -> str:
    """'suite:family[params]' -> family."""
    return case_id.split(":", 1)[1].split("[", 1)[0]


def _digest(cases) -> str:
    """The sha256 of the (id, lhs, rhs, residual, tolerance, pass) of the
    cases of a `verify all` report (dicts, as `--json` writes them) outside
    DIRECT_FAMILIES, in report order."""
    rows = [[c["id"], c["lhs"], c["rhs"], c["residual"], c["tolerance"], c["pass"]]
            for c in cases if not DIRECT_FAMILIES.fullmatch(_family(c["id"]))]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _verify_digest(fast: bool) -> str:
    from eulerlab.verify import run_suite

    return _digest(c.as_dict() for c in run_suite("all", fast=fast).cases)


def digests(slow: bool = True) -> dict:
    """'table <kind> <bound>' -> the sha256 of its CSV, each written by the CLI
    in this process, VERIFY -> the --fast cases' digest and, if slow,
    VERIFY_SLOW -> the --slow cases' digest."""
    from eulerlab.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        for kind, bound in TABLES:
            if main(["table", kind, str(bound), "--out", path]) != 0:
                raise RuntimeError(f"table {kind} {bound} failed")
            with open(path, "rb") as fh:
                out[f"table {kind} {bound}"] = hashlib.sha256(fh.read()).hexdigest()
    out[VERIFY] = _verify_digest(True)
    if slow:
        out[VERIFY_SLOW] = _verify_digest(False)
    return out


def recorded() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--check-slow"]:
        with open(sys.argv[2], encoding="utf-8") as fh:
            same = _digest(json.load(fh)["cases"]) == recorded()[VERIFY_SLOW]
        print("no output changed" if same else f"changed: {VERIFY_SLOW}")
        sys.exit(0 if same else 1)
    old = recorded() if os.path.exists(GOLDEN) else {}
    new = digests()
    changed = [name for name in {**old, **new} if old.get(name) != new.get(name)]
    print("\n".join(f"changed: {name}" for name in changed) if changed else "no output changed")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=2)
        fh.write("\n")
