"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

run.py starts this with PYTHONPATH pointing at the checkout's src/ and
records the moment it spawned the process; the interpreter's set-up time is
measured up to the return of ``import eulerlab``, the first thing done here.
The spec names the mode:

* ``probe``  -- import only (set-up time);
* ``pass``   -- one untraced pass of the workload (certify as ``verify all``);
* ``suites`` -- certify as the seven suites through ``run_suite``, in the
  ``all`` order, in this one process so caches are shared as in ``all``;
* ``traced`` -- ``suites`` (certify) or ``pass`` with a span on every public
  layer function;
* ``count``  -- ``pass`` with ExtReal arithmetic calls counted (certify runs
  with ``--jobs 1`` so that cache races cannot change the count);
* ``micro``  -- the microbenchmark phase.

Every mode times the speed reference (perfbench/speed.py) right after the
import, and the workload passes time it while they work, outside their
timed calls; run.py scales the timings by it.  The result is written as
JSON to the spec's ``out`` path.
"""
import time

import eulerlab  # noqa: F401  (set-up ends when this import returns)

IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import speed, tracing, workloads  # noqa: E402


def _timed(fn):
    c0, t0 = time.process_time(), time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0, time.process_time() - c0


def certify_pass(spec, recorder=None):
    from eulerlab import cli

    report = os.path.join(spec["work"], "certify.json")
    argv = workloads.certify_argv(report)
    if spec.get("jobs"):
        argv += ["--jobs", str(spec["jobs"])]
    # one long call: a background thread times the reference chunks
    meter = speed.Meter()
    with meter:
        t0 = time.perf_counter()
        rc, wall, cpu = _timed(lambda: cli.main(argv))
    return {"wall_s": wall, "cpu_s": cpu - meter.cpu_s, "latencies_ms": [wall * 1e3], "rc": rc,
            "reports": [["all", report]], "speed": meter.samples, "spans": [[t0, t0 + wall]]}


def certify_suites(spec, recorder=None):
    from eulerlab import verify

    suite_s, reports = {}, []
    wall = cpu = 0.0
    for name in workloads.SUITE_ORDER:
        if recorder is not None:
            recorder.request = name
        report, dt, dc = _timed(lambda: verify.run_suite(name, fast=True))
        wall, cpu = wall + dt, cpu + dc
        suite_s[name] = dt
        path = os.path.join(spec["work"], f"suite-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        reports.append([name, path])
    return {"wall_s": wall, "cpu_s": cpu, "latencies_ms": [s * 1e3 for s in suite_s.values()],
            "suite_s": suite_s, "reports": reports, "rc": 0}


def tables_pass(spec, recorder=None):
    from eulerlab import cli

    calls, spans = [], []
    wall = cpu = 0.0
    meter = speed.Meter()
    for label, argv, path in workloads.table_calls(spec["work"]):
        if recorder is not None:
            recorder.request = label
        meter.take(3)
        t0 = time.perf_counter()
        rc, dt, dc = _timed(lambda: cli.main(argv))
        wall, cpu = wall + dt, cpu + dc
        calls.append([label, dt * 1e3, rc, path])
        spans.append([t0, t0 + dt])
    meter.take(3)
    return {"wall_s": wall, "cpu_s": cpu, "latencies_ms": [c[1] for c in calls], "calls": calls,
            "speed": meter.samples, "spans": spans}


def lookup_dispatch():
    from eulerlab import euler_sums as es
    from eulerlab import hypergeom as hg
    from eulerlab import zagier as zg
    from eulerlab import zeta_core as zc

    # module attributes are looked up per call, so traced wrappers are used
    def run(kind, key):
        if kind == "zeta":
            return zc.zeta(key[0]), None
        if kind == "zeta_bar":
            return zc.zeta_bar(key[0]), None
        if kind == "closed_form":
            r, s, rb, sb = key
            return es.closed_form(es.DoubleIndex(r, s, bool(rb), bool(sb))).finite, None
        if kind in ("direct_1e5", "direct_1e6"):
            r, s, rb, sb = key
            n_max = 100_000 if kind == "direct_1e5" else 1_000_000
            res = es.double_direct(es.DoubleIndex(r, s, bool(rb), bool(sb)), n_max)
            return res.value, res.tail_estimate
        if kind == "h_closed":
            return zg.h_closed(*key), None
        if kind == "hstar_closed":
            return zg.hstar_closed(*key), None
        if kind == "mzv_direct":
            s, depth = key
            res = zg.mzv_direct([s] * depth, star=False, n_max=100_000)
            return res.value, res.tail_estimate
        if kind in ("hyp_plus1", "hyp_minus1"):
            upper, lower, x = key
            spec = hg.HypSpec.of([Fraction(u) for u in upper], [Fraction(b) for b in lower], x)
            res = hg.evaluate(spec)
            return res.value, res.tail_estimate
        if kind == "ln_gamma":
            return hg.ln_gamma(Fraction(key[0])), None
        raise KeyError(kind)

    return run


def lookup_pass(spec, recorder=None):
    stream = workloads.lookup_requests(spec["seed"], spec["seconds"])
    run = lookup_dispatch()
    latencies, outputs, spans = [], [], []
    now = time.perf_counter
    meter = speed.Meter()
    c0 = time.process_time()
    for i, (kind, key) in enumerate(stream):
        if recorder is not None:
            recorder.request = i
        meter.due()
        start = now()
        try:
            value, tail = run(kind, key)
            error = None
        except Exception as exc:  # a failed request is counted, not fatal
            value = tail = None
            error = f"{type(exc).__name__}: {exc}"
        end = now()
        latencies.append((end - start) * 1e3)
        spans.append([start, end])
        outputs.append((value, tail, error))
    wall = sum(end - start for start, end in spans)
    cpu = time.process_time() - c0 - meter.cpu_s
    encoded = [[v.hi, v.lo, float(t) if t is not None else None, e] if v is not None
               else [0.0, 0.0, None, e] for v, t, e in outputs]
    return {"wall_s": wall, "cpu_s": cpu, "latencies_ms": latencies, "outputs": encoded,
            "steady_from": workloads.warmup_count(stream), "speed": meter.samples, "spans": spans}


PASSES = {"certify": certify_pass, "tables": tables_pass, "lookup": lookup_pass}


def _span_stats(recorder):
    spans = recorder.spans
    calls = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    direct_keys = [s.key for s in spans if s.name == "euler_sums.double_direct"]
    return {
        "layer_self_s": tracing.layer_self_seconds(spans),
        "function_s": tracing.function_totals(spans),
        "calls": calls,
        "direct_calls": len(direct_keys),
        "direct_repeats": len(direct_keys) - len(set(direct_keys)),
        "spans": len(spans),
    }


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    meter = speed.Meter()
    meter.take(speed.NEAREST)
    result = {"setup_s": IMPORTED - spec["spawned"], "setup_speed": meter.samples}
    mode, workload = spec["mode"], spec.get("workload")
    if mode == "micro":
        from perfbench import micro

        result["metrics"], result["samples"] = micro.run(spec["seed"])
    elif mode != "probe":
        recorder = read_ops = None
        if mode == "traced":
            recorder = tracing.SpanRecorder()
            tracing.install_spans(recorder)
        elif mode == "count":
            read_ops = tracing.install_op_counter()
        runner = certify_suites if workload == "certify" and mode in ("suites", "traced") \
            else PASSES[workload]
        result.update(runner(spec, recorder))
        from eulerlab import zeta_core

        info = zeta_core.zeta.cache_info()
        result["zeta_cache"] = [info.hits, info.misses]
        if recorder is not None:
            result["trace"] = _span_stats(recorder)
            recorder.dump(spec["spans_out"])
        if read_ops is not None:
            result["ops"] = read_ops()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
