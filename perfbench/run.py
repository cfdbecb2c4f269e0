"""eulerlab benchmark.

    python3 perfbench/run.py --workload {certify,tables,lookup} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(perfbench/child.py) that imports eulerlab from the checkout's src/.  With
``--trace 0`` the run prints the end-to-end metrics, every time scaled to the
reference speed (perfbench/speed.py); with ``--trace 1`` it
makes an untraced pass, a traced pass, a counting pass and the
microbenchmark phase, and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload with and without tracing and prints
every metric.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import csv
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, refs, speed, tracing, workloads  # noqa: E402

CHILD = ROOT / "perfbench" / "child.py"
WORK_BASE = ROOT / ".bench_build" / "perfbench"
RUN_BUDGET_S = 172.0  # a run must end within 180 s; checks and output need < 3 s
SETUP_PROBES = 9

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "p50_ms": "ms", "p99_ms": "ms"}


class BenchError(RuntimeError):
    pass


def environment() -> Dict[str, object]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import mpmath

    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "mpmath": mpmath.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": model}


def percentile(values: List[float], q: float) -> float:
    """Percentile with linear interpolation between the two nearest ranks, so
    that a gap between neighbouring latencies does not make it jump."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Runner:
    """Spawns child passes inside one work directory and keeps the deadline."""

    def __init__(self, workload: str, seed: int, seconds: int, work: Path):
        self.workload, self.seed, self.seconds, self.work = workload, seed, seconds, work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self._n = 0

    def spawn(self, mode: str, **extra) -> dict:
        self._n += 1
        tag = f"{self._n:02d}-{mode}"
        work = self.work / tag
        work.mkdir()
        spec = {"mode": mode, "workload": self.workload, "seed": self.seed,
                "seconds": self.seconds, "work": str(work), "out": str(work / "result.json"),
                "spans_out": str(WORK_BASE / f"spans-{self.workload}.jsonl.gz"), **extra}
        spec_path = work / "spec.json"
        stderr_path = work / "stderr.txt"
        timeout = self.deadline - time.monotonic()
        if timeout <= 1:
            raise BenchError(f"time budget of {RUN_BUDGET_S:.0f} s exhausted before {tag}")
        with open(stderr_path, "w", encoding="utf-8") as err:
            spec["spawned"] = time.monotonic()
            spec_path.write_text(json.dumps(spec), encoding="utf-8")
            proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_path)], cwd=str(ROOT),
                                    env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{tag} exceeded the time budget")
        if rc != 0:
            raise BenchError(f"{tag} exited with {rc}:\n{stderr_path.read_text()[-4000:]}")
        return json.loads((work / "result.json").read_text())


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class Checker:
    """Checks the outputs of each pass and keeps the running tally."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.seed_state = checks.load_seed_state()
        self.attempted = self.failed = self.unknown = 0
        self.messages: List[str] = []
        self.worst_margin = 0.0
        self._double = None
        self._reference = None

    def _add(self, attempted: int, failed: int, unknown: int, messages: List[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.unknown += unknown
        self.messages.extend(messages)

    def double(self):
        if self._double is None:
            self._double = refs.load_double_table()
        return self._double

    def __call__(self, result: dict) -> None:
        getattr(self, f"_check_{self.workload}")(result)

    def _check_certify(self, result: dict) -> None:
        cases = []
        for suite, path in result["reports"]:
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)["cases"]
            # a suite run on its own reports ids without the "suite:" prefix of ``all``
            cases.extend(report if suite == "all" else
                         [dict(c, id=f"{suite}:{c['id']}") for c in report])
        attempted, failed, messages = checks.check_certify(cases, self.seed_state)
        self._add(attempted, failed, failed, messages)
        self.worst_margin = max([self.worst_margin] + [checks.margin(c) for c in cases])

    def _check_tables(self, result: dict) -> None:
        for label, _ms, rc, path in result["calls"]:
            rows = []
            if rc == 0:
                with open(path, encoding="utf-8", newline="") as fh:
                    rows = list(csv.DictReader(fh))
            self._add(*checks.check_table_rows(label, rows, self.double(), self.seed_state))

    def _check_lookup(self, result: dict) -> None:
        if self._reference is None:
            self._reference = checks.LookupReference(self.double())
        stream = workloads.lookup_requests(self.seed, self.seconds)
        failed, unknown, messages = checks.check_lookup(
            stream, result["outputs"], self._reference, self.seed_state)
        self._add(len(stream), failed, unknown, messages)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def at_reference_speed(result: dict) -> dict:
    """wall_s, cpu_s and latencies_ms of a pass, each timed span scaled to
    the reference speed by the chunks timed near it (perfbench/speed.py)."""
    samples = result["speed"]
    latencies = [(t1 - t0) * speed.scale(samples, t0, t1) * 1e3 for t0, t1 in result["spans"]]
    wall = sum(latencies) / 1e3
    return {"wall_s": wall, "cpu_s": result["cpu_s"] * wall / result["wall_s"],
            "latencies_ms": latencies}


def setup_at_reference_speed(result: dict) -> float:
    """setup_s scaled by the chunks the child timed right after its import."""
    samples = result["setup_speed"]
    return result["setup_s"] * speed.scale(samples, samples[0][0], samples[-1][0])


def run_end_to_end(runner: Runner, checker: Checker):
    """The --trace 0 run: untraced passes plus set-up probes, every time
    scaled to the reference speed."""
    workload = runner.workload
    n_passes = 1 if workload == "lookup" else workloads.passes(workload, runner.seconds)
    # set-up probes before and after the passes, so they see more of the
    # machine's slow and fast phases than a burst at one moment would
    setups = [setup_at_reference_speed(runner.spawn("probe")) for _ in range(SETUP_PROBES // 2)]
    results = []
    for _ in range(n_passes):
        result = runner.spawn("pass")
        checker(result)
        results.append(dict(result, **at_reference_speed(result)))
        setups.append(setup_at_reference_speed(result))
    setups += [setup_at_reference_speed(runner.spawn("probe"))
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    steady = [r["latencies_ms"][r.get("steady_from", 0):] for r in results]
    n_latencies = sum(map(len, steady))
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "cpu_s": statistics.median(r["cpu_s"] for r in results),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
        # percentiles within each pass, then the median over passes, as for wall_s
        "p50_ms": statistics.median(percentile(lat, 50) for lat in steady),
        "p99_ms": statistics.median(percentile(lat, 99) for lat in steady),
    }
    samples = {"wall_s": n_passes, "cpu_s": n_passes, "setup_s": len(setups),
               "peak_rss_mb": n_passes, "p50_ms": n_latencies, "p99_ms": n_latencies}
    units = dict(END_TO_END_UNITS)
    return metrics, units, samples


PER_LAYER_UNITS = {
    "hpreal.add_ns": "ns", "hpreal.mul_ns": "ns", "hpreal.div_ns": "ns", "hpreal.div_int_ns": "ns",
    "hpreal.exp_dd_us": "us", "hpreal.ln_dd_us": "us", "hpreal.to_decimal_us": "us",
    "hpreal.ops": "count", "hpreal.div_share": "ratio",
    "zeta_core.zeta_cold_ms": "ms", "zeta_core.hit_ratio": "ratio", "zeta_core.self_s": "s",
    "euler_sums.direct_1e5_ms": "ms", "euler_sums.direct_1e6_ms": "ms",
    "euler_sums.closed_w15_ms": "ms", "euler_sums.closed_w39_ms": "ms",
    "euler_sums.direct_calls": "count", "euler_sums.direct_hit_ratio": "ratio",
    "euler_sums.self_s": "s",
    "genfun.self_s": "s",
    "hypergeom.plus1_ms": "ms", "hypergeom.minus1_ms": "ms", "hypergeom.ln_gamma_ms": "ms",
    "hypergeom.plus1_terms": "count", "hypergeom.minus1_terms": "count",
    "hypergeom.evaluate_calls": "count", "hypergeom.self_s": "s",
    "hypergeom.andrews_s": "s", "hypergeom.gauss_s": "s", "hypergeom.dougall_s": "s",
    "hypergeom.kummer_s": "s",
    "zagier.mzv_depth9_ms": "ms", "zagier.h_closed_ms": "ms", "zagier.pilehrood_ms": "ms",
    "zagier.self_s": "s",
    **{f"verify.suite.{name}_s": "s" for name in workloads.SUITE_ORDER},
    "verify.parallelism": "ratio", "verify.worst_margin": "ratio",
    "cli.table_ds39_ms": "ms", "cli.odd_weight_s": "s", "cli.even_weight_s": "s", "cli.hsums_s": "s",
    "lookup.repeat_share": "ratio",
    **{f"lookup.share.{kind}": "ratio" for kind in workloads.LOOKUP_KINDS},
    "error_rate": "ratio",
    "trace.overhead_s": "s",
}


def run_traced(runner: Runner, checker: Checker):
    """The --trace 1 run: per-layer metrics.  A metric the workload does not
    exercise (e.g. verify.* on tables) reads 0 with 0 samples."""
    workload = runner.workload
    base = runner.spawn("suites" if workload == "certify" else "pass")
    checker(base)
    traced = runner.spawn("traced")
    checker(traced)
    counted = runner.spawn("count", jobs=1 if workload == "certify" else None)
    micro = runner.spawn("micro")

    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    samples = {name: 0 for name in PER_LAYER_UNITS}

    def put(name, value, n=1):
        metrics[name] = float(value)
        samples[name] = n

    for name, value in micro["metrics"].items():
        put(name, value, micro["samples"][name])
    ops = counted["ops"]
    total_ops = sum(ops.values())
    put("hpreal.ops", total_ops)
    put("hpreal.div_share", sum(ops.get(m, 0) for m in tracing.DIV_METHODS) / max(1, total_ops))
    hits, misses = base["zeta_cache"]
    put("zeta_core.hit_ratio", hits / max(1, hits + misses), hits + misses)

    trace = traced["trace"]
    for layer in ("zeta_core", "euler_sums", "genfun", "hypergeom", "zagier"):
        put(f"{layer}.self_s", trace["layer_self_s"].get(layer, 0.0), trace["spans"])
    calls = trace["calls"]
    put("euler_sums.direct_calls", trace["direct_calls"])
    put("euler_sums.direct_hit_ratio", trace["direct_repeats"] / max(1, trace["direct_calls"]),
        trace["direct_calls"])
    put("hypergeom.evaluate_calls", calls.get("hypergeom.evaluate", 0))
    for short, fn in (("andrews", "check_andrews_limit"), ("gauss", "check_gauss"),
                      ("dougall", "check_dougall_limit"), ("kummer", "check_kummer_type")):
        put(f"hypergeom.{short}_s", trace["function_s"].get(f"hypergeom.{fn}", 0.0),
            calls.get(f"hypergeom.{fn}", 0))
    put("trace.overhead_s", traced["wall_s"] - base["wall_s"])

    if workload == "certify":
        for name, seconds in base["suite_s"].items():
            put(f"verify.suite.{name}_s", seconds)
        put("verify.parallelism", base["cpu_s"] / base["wall_s"])
        put("verify.worst_margin", checker.worst_margin, checker.attempted)
    elif workload == "tables":
        by_label = {label: ms for label, ms, _rc, _path in base["calls"]}
        put("cli.table_ds39_ms", by_label["ds39"])
        odd = [ms for label, ms in by_label.items() if label.startswith("ds") and int(label[2:]) % 2]
        even = [ms for label, ms in by_label.items() if label.startswith("ds") and not int(label[2:]) % 2]
        put("cli.odd_weight_s", sum(odd) / 1e3, len(odd))
        put("cli.even_weight_s", sum(even) / 1e3, len(even))
        put("cli.hsums_s", by_label[f"hsums{workloads.HSUMS_BOUND}"] / 1e3)
    else:
        stream = workloads.lookup_requests(runner.seed, runner.seconds)
        put("lookup.repeat_share", workloads.repeat_share(stream), len(stream))
        for kind in workloads.LOOKUP_KINDS:
            put(f"lookup.share.{kind}", sum(k == kind for k, _ in stream) / len(stream), len(stream))
    put("error_rate", checker.failed / max(1, checker.attempted), checker.attempted)
    return metrics, dict(PER_LAYER_UNITS), samples


def report(args, env, metrics, units, samples, checker: Checker, elapsed: float) -> dict:
    print(f"# eulerlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} ({elapsed:.1f} s)")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in checker.messages:
        print(f"# FAIL {line}")
    print(f"# checked {checker.attempted} operations: {checker.failed} failed "
          f"({checker.unknown} outside the recorded seed-state defects)")
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6g} {units[name]:6s} n={samples[name]}")
    return {
        "correct": checker.unknown == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own run."""
    combined = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"# {workload} trace={trace} failed with exit code {proc.returncode}")
                return 1
            combined[f"{workload}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eulerlab" / "__init__.py").is_file():
        print(f"error: no eulerlab sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    started = time.monotonic()
    env = environment()
    WORK_BASE.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_BASE))
    try:
        runner = Runner(args.workload, args.seed, args.seconds, work)
        checker = Checker(args.workload, args.seed, args.seconds)
        if args.trace:
            metrics, units, samples = run_traced(runner, checker)
        else:
            metrics, units, samples = run_end_to_end(runner, checker)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report(args, env, metrics, units, samples, checker, time.monotonic() - started)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
