"""sha256 digests of the outputs that take no direct sum, so that they are
the same on every platform: the CSV of each odd-weight
`eulerlab table doublesums k` (k = 3, 5, ..., 39) and of `table hsums 20`.
tests/golden.json records them and tests/test_golden.py checks them.

A change that alters these bytes on purpose re-records them, and this prints
which tables changed:

    PYTHONPATH=src python tests/golden.py
"""
import hashlib
import json
import os
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
TABLES = [("doublesums", k) for k in range(3, 40, 2)] + [("hsums", 20)]


def digests() -> dict:
    """'table <kind> <bound>' -> the sha256 of its CSV, each written by the CLI in this process."""
    from eulerlab.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        for kind, bound in TABLES:
            if main(["table", kind, str(bound), "--out", path]) != 0:
                raise RuntimeError(f"table {kind} {bound} failed")
            with open(path, "rb") as fh:
                out[f"table {kind} {bound}"] = hashlib.sha256(fh.read()).hexdigest()
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
    print("\n".join(f"changed: {name}" for name in changed) if changed else "no table changed")
