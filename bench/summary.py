"""Runs the benchmark over several seeds and summarises every metric.

Run from the repository root:

    python3 bench/summary.py --seeds 1-10 --seconds 30 --out bench/baseline.json

For each workload it makes one untraced run per seed, each in its own
process, and reports every end-to-end metric (and the error rate) as median,
quartiles and sample count, with the quartile spread as a share of the
median.  It then makes two traced runs at seed 1, requires their
deterministic counts to agree exactly, and reports the per-layer breakdown
and the tracing overhead: traced over median untraced throughput.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_SEED = 1


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(workload, seed, seconds, trace):
    """One benchmark process; returns (info, result)."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = completed.stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def describe(values):
    """Median, quartiles, sample count and quartile spread over the median."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def _machine():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(line.split(":", 1)[1].strip() for line in handle
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": model, "cores": os.cpu_count(), "python": platform.python_version(),
            "system": platform.platform()}


def summarise(workload, seeds, seconds):
    runs = [bench(workload, seed, seconds, 0) for seed in seeds]
    end_to_end = {}
    for name in runs[0][1]["metrics"]:
        end_to_end[name] = describe([r["metrics"][name]["value"] for _, r in runs])
        end_to_end[name]["unit"] = runs[0][1]["metrics"][name]["unit"]
    end_to_end["error_rate"] = describe(
        [r["failed"] / r["attempted"] for _, r in runs])
    end_to_end["error_rate"]["unit"] = "1"
    first, second = (bench(workload, TRACE_SEED, seconds, 1) for _ in range(2))
    counts_repeat = all(
        first[1]["metrics"][name] == second[1]["metrics"][name] for name in run.COUNTS
    )
    # seeds cost about the same, so the median over seeds is a steadier base
    # than the one untraced run at the traced seed
    untraced = end_to_end["throughput_pps"]["median"]
    traced = first[1]["metrics"]["trace.throughput_pps"]["value"]
    info = runs[0][0]
    return {
        "correct": counts_repeat and all(r["correct"] for _, r in runs + [first, second]),
        "seeds": seeds,
        "mix_per_pass": info["mix_per_pass"],
        "requests_per_pass": info["requests_per_pass"],
        "input_bytes_per_pass": info["input_bytes_per_pass"],
        "table_entries_per_pass": info["table_entries_per_pass"],
        "tail_percentile": info["tail_percentile"],
        "samples_per_run": [i["samples"] for i, _ in runs],
        "end_to_end": end_to_end,
        "traced": {
            "seed": TRACE_SEED,
            "counts_repeat_between_runs": counts_repeat,
            "counts_repeat_every_pass": first[0]["counts_repeat_every_pass"]
            and second[0]["counts_repeat_every_pass"],
            "traced_share_accounted": first[0]["traced_share_accounted"],
            "overhead_traced_over_untraced_throughput": traced / untraced,
            "per_layer": {name: m["value"] for name, m in first[1]["metrics"].items()},
            "units": {name: m["unit"] for name, m in first[1]["metrics"].items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", help="also write the summary here as JSON")
    args = parser.parse_args(argv)

    summary = {"machine": _machine(), "seconds": args.seconds, "workloads": {}}
    for workload in run.workloads.WORKLOADS:
        result = summarise(workload, args.seeds, args.seconds)
        summary["workloads"][workload] = result
        print(f"{workload}: correct={result['correct']} "
              f"tail=p{result['tail_percentile']} samples={result['samples_per_run']}")
        for name, m in result["end_to_end"].items():
            print(f"  {name:16s} {m['median']:12.5g} {m['unit']:4s} "
                  f"q1={m['q1']:.5g} q3={m['q3']:.5g} n={m['n']} spread={m['spread']:.4f}")
        traced = result["traced"]
        print(f"  traced seed {traced['seed']}: overhead "
              f"{traced['overhead_traced_over_untraced_throughput']:.4f}, counts repeat "
              f"{traced['counts_repeat_between_runs']}")
        for name, value in traced["per_layer"].items():
            print(f"    {name:34s} {value:12.6g} {traced['units'][name]}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
