"""sha256 digests of the outputs that take no direct sum, so that they are
the same on every platform: the CSV of each odd-weight
`eulerlab table doublesums k` (k = 3, 5, ..., 39) and of `table hsums 20`,
and the cases of `eulerlab verify all --fast` outside the families that take
a direct sum (README's list: the closed-closed, hypergeometric and Zagier
closed-form families).  tests/golden.json records them and
tests/test_golden.py checks them.

A change that alters these bytes on purpose re-records them, and this prints
which outputs changed:

    PYTHONPATH=src python tests/golden.py
"""
import hashlib
import json
import os
import re
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
TABLES = [("doublesums", k) for k in range(3, 40, 2)] + [("hsums", 20)]
# the families whose cases take a direct sum, so whose digits may differ by CPU
DIRECT_FAMILIES = re.compile(r".*-vs-direct|hstar-closed-vs-pilehrood|stuffle-mixed|stuffle-alt"
                             r"|shuffle-.*|sumformula-.*|genfun-.*-finite")
VERIFY = "verify all --fast, cases without a direct sum"


def _family(case_id: str) -> str:
    """'suite:family[params]' -> family."""
    return case_id.split(":", 1)[1].split("[", 1)[0]


def digests() -> dict:
    """'table <kind> <bound>' -> the sha256 of its CSV, each written by the CLI
    in this process, and VERIFY -> the sha256 of those cases' (id, lhs, rhs,
    residual, tolerance, pass), in report order."""
    from eulerlab.cli import main
    from eulerlab.verify import run_suite

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        for kind, bound in TABLES:
            if main(["table", kind, str(bound), "--out", path]) != 0:
                raise RuntimeError(f"table {kind} {bound} failed")
            with open(path, "rb") as fh:
                out[f"table {kind} {bound}"] = hashlib.sha256(fh.read()).hexdigest()
    cases = [[c.id, c.lhs, c.rhs, c.residual, c.tolerance, c.passed]
             for c in run_suite("all", fast=True).cases if not DIRECT_FAMILIES.fullmatch(_family(c.id))]
    out[VERIFY] = hashlib.sha256(json.dumps(cases).encode()).hexdigest()
    return out


def recorded() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    old = recorded() if os.path.exists(GOLDEN) else {}
    new = digests()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=2)
        fh.write("\n")
    changed = [name for name in new if old.get(name) != new[name]]
    print("\n".join(f"changed: {name}" for name in changed) if changed else "no output changed")
