#!/usr/bin/env python3
"""The Pegasus performance ledger: one command behind every performance claim.

    python3 bench/ledger/run.py                    # all four workloads, seed 16
    python3 bench/ledger/run.py --quick            # all four at 1/20 length
    python3 bench/ledger/run.py --trace 1          # per-layer metrics instead
    python3 bench/ledger/run.py --workload metro-fleet --seed 1016 --seconds 10 --trace 0

Builds bench/ledger (always Release) into .bench_build/ledger, runs each
workload in a child process of its own, checks the outputs, and prints one
JSON object per workload; with --workload that object is the last line of
standard output and has exactly the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics BENCHMARK.json names,
--trace 1 the per-layer ones (from a traced rerun plus layer calibration).
Everything else (host facts, fingerprints, failed checks) goes on the line
before it. See bench/ledger/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "ledger"
WORKLOADS = ["metro-fleet", "metro-fleet-sharded", "admission-churn", "closed-loop"]
PRIMARY_SEED = 16
HELD_OUT_SEED = 1016
# One workload's runs, the build excluded, must finish within this many seconds.
RUN_BUDGET_S = 170

# bench_micro filters for the traced run's layer calibration.
MICRO = {
    "BM_SimulatorEventChurn/100000": ("sim.micro_events_per_s", "items_per_second", "1/s"),
    "BM_ShardRingWindows/4": ("shard.micro_ring4_events_per_s", "events/s", "1/s"),
    "BM_LinkCellHotPath/64": ("link.micro_cells_per_s", "cells/s", "1/s"),
    "BM_SwitchForward/64": ("switch.micro_cells_per_s", "cells/s", "1/s"),
    "BM_Aal5SegmentReassemble/16384": ("aal5.micro_bytes_per_s", "bytes_per_second", "B/s"),
}


class LedgerError(Exception):
    pass


def log(msg):
    print(f"[ledger] {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures and builds the ledger; returns the build directory."""
    if not any((ROOT / "src").rglob("*.cc")):
        raise LedgerError(f"no library sources under {ROOT / 'src'}: run from a full checkout")
    commands = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", str(nproc())],
    ]
    for cmd in commands:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        if done.returncode != 0:
            raise LedgerError(f"build step failed: {' '.join(cmd)}")
    return BUILD


def source_key():
    """Hash of the code the ledger binary is built from: fingerprints are
    only comparable between runs of the same code."""
    code = [p for p in (ROOT / "src").rglob("*") if p.is_file()]
    code += [p for p in HERE.iterdir() if p.suffix in (".cpp", ".h") or p.name == "CMakeLists.txt"]
    h = hashlib.sha256()
    for path in sorted(code):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "none"


class Runner:
    def __init__(self, build_dir, seconds):
        self.ledger = build_dir / "ledger"
        self.micro = build_dir / "bench_micro"
        self.seconds = seconds
        self.deadline = None
        self.key = source_key()
        self.store = build_dir / "fingerprints" / self.key
        self.traces = build_dir / "traces"

    def trace_file(self, workload):
        return self.traces / f"{workload}.jsonl"

    def child(self, workload, seed, quick=False, traced=False):
        """Runs one workload in a child process and returns its report."""
        cmd = [str(self.ledger), "--workload", workload, "--seed", str(seed),
               "--seconds", str(self.seconds)]
        if quick:
            cmd.append("--quick")
        if traced:
            self.traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out", str(self.trace_file(workload))]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise LedgerError("run budget exhausted")
        log(" ".join(cmd[1:]))
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            raise LedgerError(f"{workload} exited with {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def stored(self, workload, seed, quick):
        path = self.store / f"{workload}-{seed}-{self.seconds}{'-quick' if quick else ''}"
        return path, (path.read_text().strip() if path.exists() else None)

    def remember(self, workload, seed, quick, fingerprint):
        """Returns the failed determinism checks for `fingerprint`: another run
        of this workload at this seed, and the other fleet (sharded or not)."""
        failures = []
        path, previous = self.stored(workload, seed, quick)
        if previous is None:
            self.store.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(fingerprint + "\n")
            os.replace(tmp, path)
        elif previous != fingerprint:
            failures.append(f"{workload} fingerprint {fingerprint} != {previous} "
                            f"from an earlier run at seed {seed}")
        twin = {"metro-fleet": "metro-fleet-sharded",
                "metro-fleet-sharded": "metro-fleet"}.get(workload)
        if twin is not None:
            _, other = self.stored(twin, seed, quick)
            if other is not None and other != fingerprint:
                failures.append(f"{workload} fingerprint {fingerprint} != {twin} {other}")
        return failures

    def micro_calibration(self):
        if not self.micro.exists():
            raise LedgerError("bench_micro was not built (Google Benchmark missing)")
        pattern = "^(" + "|".join(MICRO) + ")$"
        cmd = [str(self.micro), f"--benchmark_filter={pattern}", "--benchmark_format=json",
               "--benchmark_min_time=0.2"]
        log(" ".join(cmd[1:]))
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1, self.deadline - time.monotonic()))
        if done.returncode != 0:
            raise LedgerError("bench_micro failed")
        out = {}
        for bench in json.loads(done.stdout)["benchmarks"]:
            if bench["name"] in MICRO:
                name, field, unit = MICRO[bench["name"]]
                out[name] = {"value": bench[field], "unit": unit}
        missing = [m[0] for m in MICRO.values() if m[0] not in out]
        if missing:
            raise LedgerError(f"bench_micro reported no {missing}")
        return out


def value(report, metric):
    return report["metrics"][metric]["value"]


def run_workload(runner, workload, seed, quick, trace):
    """One workload's result object, plus the facts printed beside it."""
    load_start = os.getloadavg()
    report = runner.child(workload, seed, quick)
    failures = [f for f in [report["failures"]] if f]
    failures += runner.remember(workload, seed, quick, report["fingerprint"])
    # The sharded fleet must reproduce the unsharded one; run that reference
    # when no earlier run recorded it (and always when tracing, for the
    # crossing cost).
    reference = None
    if workload == "metro-fleet-sharded" and (
            trace or runner.stored("metro-fleet", seed, quick)[1] is None):
        reference = runner.child("metro-fleet", seed, quick)
        failures += runner.remember("metro-fleet", seed, quick, reference["fingerprint"])
    metrics = dict(report["metrics"])
    facts = {"workload": workload, "seed": seed, "quick": quick,
             "fingerprint": report["fingerprint"], "detail": report["detail"],
             "untraced": {name: m["value"] for name, m in report["metrics"].items()}}
    attempted, failed = report["attempted"], report["failed"]

    if trace:
        # One trace file per workload, overwritten by its next traced run: a
        # full admission-churn trace is ~130 MB of JSON lines.
        traced = runner.child(workload, seed, quick, traced=True)
        if traced["failures"]:
            failures.append("traced: " + traced["failures"])
        if traced["fingerprint"] != report["fingerprint"]:
            failures.append(f"traced fingerprint {traced['fingerprint']} != untraced "
                            f"{report['fingerprint']}")
        metrics = dict(traced["metrics"])
        attempted, failed = traced["attempted"], max(failed, traced["failed"])
        overhead = 1 - value(traced, "ops_per_s") / value(report, "ops_per_s")
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        crossing_us = 0.0
        if reference is not None:
            crossings = value(report, "shard.windows") + value(report, "shard.sync_points")
            extra_s = report["detail"]["measured_s"] - reference["detail"]["measured_s"]
            crossing_us = extra_s * 1e6 / max(1, crossings)
        metrics["shard.host_us_per_crossing"] = {"value": crossing_us, "unit": "us"}
        # Layer calibration, recorded next to the host facts: bench_micro and
        # the QoS monitor's idle tick.
        metrics.update(runner.micro_calibration())
        idle = runner.child("monitor-idle", seed, quick)
        metrics["monitor.idle_tick_us"] = idle["metrics"]["monitor.idle_tick_us"]
        facts["trace_file"] = str(runner.trace_file(workload))
        facts["self_s"] = traced["detail"].get("self_s", {})
        facts["trace_overhead_frac"] = overhead

    if failures:
        failed = attempted
    facts["failures"] = failures
    facts["host"] = dict(report["host"], nproc=nproc(), loadavg_start=load_start,
                         loadavg_end=os.getloadavg(), git_sha=git_sha(),
                         source_key=runner.key)
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, facts


def select(result, spec, trace):
    """Keeps exactly the metrics BENCHMARK.json names for this mode."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise LedgerError(f"metrics not measured: {', '.join(missing)}")
    chosen = {}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        if got["unit"] != metric["unit"]:
            raise LedgerError(f"metric {metric['name']} measured in {got['unit']}, "
                              f"BENCHMARK.json says {metric['unit']}")
        chosen[metric["name"]] = got
    return dict(result, metrics=chosen)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=PRIMARY_SEED,
                        help=f"input seed (primary {PRIMARY_SEED}, held out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int, default=10,
                        help="measured host seconds per run on the reference host (1-60)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="1/20 length, same checks")
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        parser.error("--seconds must be 1..60 and --seed non-negative")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        build_dir = build()
        runner = Runner(build_dir, args.seconds)
        names = [args.workload] if args.workload else WORKLOADS
        results = []
        for workload in names:
            runner.deadline = time.monotonic() + RUN_BUDGET_S
            result, facts = run_workload(runner, workload, args.seed, args.quick, args.trace)
            results.append((workload, select(result, spec, args.trace), facts))
    except (LedgerError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as err:
        print(f"[ledger] error: {err}", file=sys.stderr)
        return 2

    for workload, result, facts in results:
        print(json.dumps(facts))
        if args.workload is None:
            print(json.dumps(dict(result, workload=workload)))
        else:
            print(json.dumps(result))
    if args.workload is None:
        return 0 if all(r["correct"] for _, r, _ in results) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
