"""pipechain benchmark: end-to-end host-time metrics and a traced per-layer run.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 60 --trace 0

Runs repetitions of one workload for about --seconds, each in a fresh
subprocess (perfbench/rep.py), one after another, and prints the metrics
over all of them.  With --trace 0 the repetitions are untraced and the
metrics are end to end.  With --trace 1 traced and untraced repetitions
alternate: the metrics are the per-layer ones from the traced
repetitions, and the untraced ones give the tracing overhead and the check
that tracing changes no report byte.

Every repetition's outputs are gated (see rep.gate); the report sha256 and
the model's statistics must be identical across all repetitions.  The line
before the last holds the details (machine, seed, per-repetition records);
the last line is the result.  Spans of the last traced repetition are
written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from rep import REFERENCE_S, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170  # a hung repetition is killed so that the whole run ends in time

END_TO_END_UNITS = {
    "setup_s": "s",
    "accepted_tx_per_s": "tx/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_checked"):
        return "digests/account"
    return "count"


def machine_info() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def run_child(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One repetition in a fresh interpreter; a crash becomes a failed record."""
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    if traced:
        command += ["--spans-out", str(OUT / f"spans-{workload}-{seed}.jsonl.gz")]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"traced": traced, "error": proc.stderr.strip()[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def agreeing(values) -> bool:
    return all(value == values[0] for value in values)


class NoResult(Exception):
    """No repetition produced the records a result needs."""


def summarize(workload: str, seed: int, trace: int, rounds: int, records) -> tuple[dict, dict]:
    """Details and the result line from the repetitions' records.

    Every repetition counts: one that crashed has all its rounds failed.
    """
    done = [r for r in records if "error" not in r]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not (traced if trace else plain):
        raise NoResult("no repetition of the requested kind completed")
    checks = {
        "every_repetition_completed": len(done) == len(records),
        "every_gate_passed": all(r["gate"]["ok"] for r in done),
        "report_sha256_identical": agreeing([r["report_sha256"] for r in done]),
        "model_statistics_identical": agreeing([r["model"] for r in done]),
    }
    details = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": machine_info(),
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "report_sha256": done[0]["report_sha256"],
        "model": done[0]["model"],
        "block_fail_share": max(r["gate"]["block_fail_share"] for r in done),
        "audit_fail_share": max(r["gate"]["audit_fail_share"] for r in done),
        "checks": checks,
    }

    if trace:
        layers = [r["layers"] for r in traced]
        exact = [name for name in layers[0] if layer_unit(name) != "s"]
        checks["layer_counts_identical"] = agreeing([[l[n] for n in exact] for l in layers])
        metrics = {
            name: layers[0][name] if name in exact else statistics.median(l[name] for l in layers)
            for name in layers[0]
        }
        metrics.update({f"model.{k}": v for k, v in done[0]["model"].items()})
        units = {name: layer_unit(name) for name in metrics}
        if plain:
            details["tracing_overhead_s"] = statistics.median(
                r["run_s"] for r in traced
            ) - statistics.median(r["run_s"] for r in plain)
    else:
        # The host's speed drifts by up to a third from minute to minute,
        # and the reference task, timed in every repetition's process, slows
        # with it: times are scaled to the host speed at which it takes
        # REFERENCE_S.  Throughput is over the whole run, which averages the
        # drift between repetitions better than a median of their rates.
        reference_s = statistics.mean(r["reference_s"] for r in plain)
        host_factor = reference_s / REFERENCE_S
        measured = {
            "setup_s": statistics.median(s for r in plain for s in r["setup_s"]),
            "accepted_tx_per_s": sum(r["model"]["accepted_total"] for r in plain)
            / sum(r["run_s"] for r in plain),
        }
        details["host"] = {"reference_s": reference_s, "host_factor": host_factor}
        details["measured"] = measured
        metrics = {
            "setup_s": measured["setup_s"] / host_factor,
            "accepted_tx_per_s": measured["accepted_tx_per_s"] * host_factor,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END_UNITS
    details["records"] = records

    result = {
        "correct": all(checks.values()),
        "attempted": rounds * len(records),
        "failed": sum(r["gate"]["failed_rounds"] if "gate" in r else rounds for r in records),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "pipechain" / "__init__.py").is_file():
        print(f"run: no pipechain sources under {SRC}", file=sys.stderr)
        return 2
    # a terminated run raises SystemExit, on which subprocess.run kills the
    # running repetition and waits for it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.trace:
        OUT.mkdir(exist_ok=True)

    kinds = (False, True) if args.trace else (False,)
    records = []
    start = perf_counter()
    cycles = 0
    while True:
        for traced in kinds:
            timeout = max(1.0, DEADLINE_S - (perf_counter() - start))
            records.append(run_child(args.workload, args.seed, traced, timeout))
        cycles += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / cycles > args.seconds:
            break

    try:
        details, result = summarize(
            args.workload, args.seed, args.trace, WORKLOADS[args.workload].config["rounds"], records
        )
    except NoResult as exc:
        print(json.dumps({"details": {"records": records}}))
        print(f"run: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
