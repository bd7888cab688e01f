"""choquet-rn benchmark: whole CLI requests in one process, closed loop.

Run from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One client sends one request at a time, each an in-process call of
``choquetrn.cli.main`` on a generated problem file, and the next only after
the previous one has returned.  The client repeats the workload's pass of
requests until ``--seconds`` have gone by and at least the workload's minimum
number of passes is done.  Every request's exit status and report are
checked once its pass is over; a miss counts as a failed request and nothing
is retried.

With ``--trace 0`` the last line of output carries the end-to-end metrics;
with ``--trace 1`` the layer spans are recorded and it carries the per-layer
metrics.  The line before it is an ``info`` object with the run's details.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_RUNS = 7
PERCENTILES = (50, 75, 90, 95, 99)

# Span names whose self time per request is reported as "<name>_s".
LAYER_SPANS = (
    "specio.load", "specio.dump", "measures.materialize", "measures.classify",
    "decomposition.check", "decomposition.verify_rn", "decomposition.dyadic",
    "solver.solve", "sigma_finite.model", "sigma_finite.glue",
    "sigma_finite.verify", "report.render",
)
# Counts that come from public return values and must repeat exactly.
COUNTS = (
    "measures.null_sets", "choquet.value_calls", "decomposition.band_pair_checks",
    "decomposition.verify_rn_sets", "solver.chains_tried",
    "sigma_finite.test_sets", "report.output_bytes",
)


def tail_percentile(samples: int) -> int:
    """The highest percentile with at least ten samples beyond it."""
    return max(p for p in PERCENTILES if samples * (100 - p) >= 1000)


def percentile(values, p):
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * p // 100) - 1)]


def import_cli():
    """Imports the library afresh, as a new process would."""
    for name in [m for m in sys.modules if m.split(".")[0] == "choquetrn"]:
        del sys.modules[name]
    return importlib.import_module("choquetrn.cli").main


def call(main, request, path, runner=None):
    """Sends one request, its output going to ``path``.

    Returns (latency, exit status), or (latency, traceback) if it raised.
    """
    with open(path, "w", encoding="utf-8") as out, \
            redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            status = (runner or main)(request.argv)
        except Exception:  # a traceback is a failed request
            return perf_counter() - start, traceback.format_exc(limit=-3)
        return perf_counter() - start, status


def check(request, status, path):
    """Why the request failed, or None."""
    if isinstance(status, str):
        return status
    if status != request.exit_status:
        return f"exit status {status}, expected {request.exit_status}"
    try:
        with open(path, encoding="utf-8") as handle:
            ok = request.check(json.load(handle))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"report does not parse as expected: {exc!r}"
    return None if ok else "report facts differ from the expected ones"


def run_pass(main, requests, outputs, runner=None, on_request=None):
    """Sends every request of a pass; returns (latencies, statuses).

    The heap is collected between requests, outside the timed calls, so each
    request starts on a clean heap, as each CLI run in its own process would.
    """
    latencies, statuses = [], []
    for index, request in enumerate(requests):
        latency, status = call(main, request, os.path.join(outputs, f"{index}.json"), runner)
        latencies.append(latency)
        statuses.append(status)
        if on_request is not None:
            on_request()
        gc.collect()
    return latencies, statuses


def check_pass(requests, statuses, outputs):
    """The failures of a pass, checked once all of its requests have returned."""
    failures = []
    for index, (request, status) in enumerate(zip(requests, statuses)):
        why = check(request, status, os.path.join(outputs, f"{index}.json"))
        if why is not None:
            failures.append({"kind": request.kind, "argv": request.argv, "why": why})
    return failures


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup(spec, seed, directory):
    """Import, input generation and warm-up; returns (main, requests, files, ok)."""
    shutil.rmtree(directory, ignore_errors=True)
    warm = os.path.join(directory, "warmup")
    os.makedirs(warm)
    os.makedirs(os.path.join(directory, "out"))
    main = import_cli()
    requests, files = spec.build(seed, directory)
    warmup, _ = spec.build(seed, warm, **spec.warmup)
    _, statuses = run_pass(main, warmup, warm)
    return main, requests, files, not check_pass(warmup, statuses, warm)


def measure(main, requests, outputs, seconds, min_passes, runner=None, on_request=None):
    """Sends whole passes; returns (latencies, failures, passes, peak RSS in MB).

    A pass is checked after its last request, so the peak RSS read after the
    first pass, before its checks, is set by set-up or by the program's calls,
    not by the parsing of reports and the oracle's tables.
    """
    latencies, failures, passes, peak = [], [], 0, None
    start = perf_counter()
    while passes < min_passes or perf_counter() - start < seconds:
        pass_latencies, statuses = run_pass(main, requests, outputs, runner, on_request)
        if peak is None:
            peak = max_rss_mb()
        latencies += pass_latencies
        failures += check_pass(requests, statuses, outputs)
        passes += 1
    return latencies, failures, passes, peak


def throughput(latencies, pass_length):
    """Requests per second of request time: the median over passes.

    The machine's speed can change for seconds at a time with the load of
    other processes; the median keeps a slow stretch that covers a minority
    of the passes out of the figure.
    """
    return statistics.median(
        pass_length / sum(latencies[start:start + pass_length])
        for start in range(0, len(latencies), pass_length)
    )


def end_to_end(latencies, pass_length, setup_s, tail, peak_rss):
    return {
        "throughput_pps": (throughput(latencies, pass_length), "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_tail_ms": (percentile(latencies, tail) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer, latencies, pass_length):
    n = len(latencies)
    selfs, calls = tracer.self_times()
    counters = dict(tracer.counters, **{"choquet.value_calls": calls})
    metrics = {
        f"{name}_s": (selfs.get(name, 0.0) / n, "s/req") for name in LAYER_SPANS
    }
    metrics["choquet.value_s"] = (selfs[tracing.HOT] / n, "s/req")
    metrics["cli.self_s"] = (selfs[tracing.ROOT] / n, "s/req")
    for name in COUNTS:
        metrics[name] = (counters.get(name, 0) / n, "count/req")
    metrics["report.output_bytes"] = (counters.get("report.output_bytes", 0) / n, "B/req")
    for kind in ("feasible", "refute"):
        done = counters.get(f"solver.{kind}_calls", 0)
        metrics[f"solver.{kind}_s"] = (
            counters.get(f"solver.{kind}_s", 0.0) / done if done else 0.0, "s/call")
    verdicts = counters.get("solver.verdicts", 0)
    metrics["solver.chains_per_verdict"] = (
        counters.get("solver.chains_tried", 0) / verdicts if verdicts else 0.0, "count/call")
    metrics["trace.latency_ms"] = (sum(latencies) / n * 1e3, "ms")
    metrics["trace.throughput_pps"] = (throughput(latencies, pass_length), "1/s")
    return metrics


class _PassCounts:
    """Checks that the deterministic counts of every pass are identical."""

    def __init__(self, tracer, pass_length):
        self.tracer = tracer
        self.pass_length = pass_length
        self.current = {}
        self.first = None
        self.seen = 0
        self.calls = 0
        self.repeat = True

    def __call__(self):
        for key, value in self.tracer.finish_request().items():
            if key in COUNTS:
                self.current[key] = self.current.get(key, 0) + value
        self.seen += 1
        if self.seen % self.pass_length == 0:
            calls = sum(count for count, _ in self.tracer.hot.values())
            self.current["choquet.value_calls"] = calls - self.calls
            self.calls = calls
            if self.first is None:
                self.first = self.current
            self.repeat = self.repeat and self.current == self.first
            self.current = {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "choquetrn")):
        print(f"no library source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    spec = workloads.WORKLOADS[args.workload]
    directory = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    outputs = os.path.join(directory, "out")
    try:
        setup_times, warm_ok = [], True
        for _ in range(SETUP_RUNS):
            start = perf_counter()
            main_fn, requests, files, ok = setup(spec, args.seed, directory)
            setup_times.append(perf_counter() - start)
            warm_ok = warm_ok and ok
        setup_s = statistics.median(setup_times)
        setup_rss = max_rss_mb()

        tail = tail_percentile(spec.min_passes * len(requests))
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            counts = _PassCounts(tracer, len(requests))
            latencies, failures, passes, _ = measure(
                main_fn, requests, outputs, args.seconds, spec.min_passes,
                tracer.root(main_fn, counts), counts)
            metrics = per_layer(tracer, latencies, len(requests))
            selfs, _ = tracer.self_times()
            accounted = sum(selfs.values()) / sum(latencies)
            tracer.write(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.jsonl"))
            repeat = counts.repeat
        else:
            latencies, failures, passes, peak = measure(
                main_fn, requests, outputs, args.seconds, spec.min_passes)
            metrics = end_to_end(latencies, len(requests), setup_s, tail, peak)
            accounted = None
            repeat = True
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    attempted = passes * len(requests)
    failed = len(failures)
    sent = requests * passes
    by_kind = {}
    for request, latency in zip(sent, latencies):
        by_kind.setdefault(request.kind, []).append(latency * 1e3)
    # the request whose sample each reported percentile is
    held_by = {}
    for p in sorted({50, tail}):
        request = sent[latencies.index(percentile(latencies, p))]
        held_by[f"p{p}"] = f"{request.kind} {os.path.basename(request.argv[-1])}"
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": passes, "requests_per_pass": len(requests),
        "mix_per_pass": {kind: len(v) // passes for kind, v in sorted(by_kind.items())},
        "median_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "input_bytes_per_pass": files.bytes, "table_entries_per_pass": files.entries,
        "tail_percentile": tail, "samples": len(latencies),
        "samples_beyond_tail": sum(
            1 for x in latencies if x > percentile(latencies, tail)),
        "percentile_held_by": held_by,
        "error_rate": failed / attempted, "first_failures": failures[:3],
        "warmup_ok": warm_ok,
        "counts_repeat_every_pass": repeat, "setup_runs_s": setup_times,
        "peak_rss_after_setup_mb": setup_rss,
        "traced_share_accounted": accounted,
        "python": sys.version.split()[0],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and warm_ok and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
