#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the serving pipeline.

    python3 perfbench/run.py --workload <ingest|serve|recover> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is a package of its own
(perfbench/Cargo.toml); this script builds it in release mode (into
CARGO_TARGET_DIR, default .bench_build) and runs it with a scratch
directory .bench_run for its snapshot stores and write-ahead logs. The
benchmark prints a run stamp, one `name value unit` line per metric and, as
its last line, one JSON object with the keys correct, attempted, failed and
metrics. It exits non-zero when the build fails or an output check fails.

`--selftest` runs every workload at a tiny size, then each again with a
planted wrong reference (a ledger built from a differently seeded sketch),
which must fail its output checks.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ingest", "serve", "recover")
END_TO_END = (
    "setup_s",
    "ingest_updates_per_s",
    "ingest_cpu_ns_per_update",
    "rss_peak_mib",
    "point_err_ratio",
)


def build():
    """Build the benchmark; return the executable's path, or None."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def run(exe, workload, seed, seconds, trace, extra=(), capture=False):
    cmd = [
        exe,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--workdir", os.path.join(ROOT, ".bench_run"),
        *extra,
    ]
    out = subprocess.PIPE if capture else None
    return subprocess.run(cmd, cwd=ROOT, stdout=out, text=True)


def selftest(exe):
    """Tiny runs of every workload: untraced and traced must pass and print
    every metric with its unit; a planted wrong reference must fail."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(exe, workload, 7, 2, trace, ["--tiny"], capture=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            metrics = result.get("metrics", {})
            missing = [m for m in END_TO_END if m not in metrics] if trace == 0 else []
            unitless = [m for m, v in metrics.items() if not v.get("unit")]
            passed = proc.returncode == 0 and result.get("correct") is True
            passed = passed and not missing and not unitless and len(metrics) > 0
            print(f"selftest {workload} trace={trace}: {'ok' if passed else 'FAILED'}"
                  f" ({len(metrics)} metrics)")
            if missing or unitless:
                print(f"  missing={missing} unitless={unitless}")
            ok &= passed
        proc = run(exe, workload, 7, 1, 0, ["--tiny", "--wrong-reference"], capture=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        tripped = proc.returncode != 0 and result.get("correct") is not True
        print(f"selftest {workload} planted wrong reference: "
              f"{'tripped' if tripped else 'NOT TRIPPED'}")
        ok &= tripped
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return 0 if selftest(exe) else 1
    return run(exe, args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
