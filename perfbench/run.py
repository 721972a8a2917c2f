#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the release `libdiehard.so`
and `diehard-proxy` plus the helpers in `perfbench/driver` (into
`$CARGO_TARGET_DIR`, default `.bench_build`), generates every input from
`--seed`, measures for `--seconds`, and checks every output. Workloads:

  alloc_intensive  Figure 5(a) op streams replayed by one driver binary
                   with real malloc/free, under glibc and libdiehard.so
  tool_corpus      installed binaries on seeded inputs, under glibc and
                   libdiehard.so
  voted_short      diehard-proxy -n 3 --pool 2 --preload libdiehard.so -- cat,
                   open loop of one-chunk requests at a fixed rate
  voted_bulk       the same proxy, one closed-loop client streaming
                   multi-MiB requests

The last stdout line is the result: `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`). The line before it is the full report: every metric the
workload defines, sample counts, and host and build metadata. The report
and, when traced, the span file are also written under `.bench_out/`.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

import workloads

OUT_DIR = ".bench_out"


def build(target):
    """Builds the program under test and the helpers from source."""
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        raise SystemExit("perfbench: run from the root of a repository checkout "
                         "(no Cargo.toml and crates/ here)")
    env = {**os.environ, "CARGO_TARGET_DIR": target}
    for cmd in (["cargo", "build", "--release", "--offline",
                 "-p", "diehard-preload", "-p", "diehard-replicate"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", "perfbench/driver/Cargo.toml"]):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    rel = os.path.join(target, "release")
    return workloads.Bins(
        so=os.path.join(rel, "libdiehard.so"),
        proxy=os.path.join(rel, "diehard-proxy"),
        alloc_replay=os.path.join(rel, "alloc_replay"),
        voted_client=os.path.join(rel, "voted_client"),
        layers=os.path.join(rel, "layers"),
        timed_exec=os.path.join(rel, "timed_exec"))


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_hash():
    """Hash of the sources the build reads, for checkouts without git."""
    h = hashlib.sha256()
    files = ["Cargo.toml", "Cargo.lock", "rust-toolchain.toml"]
    for top in ("crates", "shims", "src", "perfbench"):
        for d, subdirs, names in os.walk(top):
            subdirs[:] = sorted(s for s in subdirs if s not in ("target", "__pycache__"))
            files += [os.path.join(d, n) for n in sorted(names)]
    for f in files:
        if os.path.isfile(f):
            h.update(f.encode() + b"\0" + sha256_file(f).encode())
    return h.hexdigest()


def metadata(bins):
    def cmd(argv):
        try:
            r = subprocess.run(argv, capture_output=True, text=True)
            return r.stdout.strip() if r.returncode == 0 else "unknown"
        except OSError:
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "kernel": platform.release(),
        "rustc": cmd(["rustc", "-V"]),
        # Only this checkout's own history counts, not an enclosing repo's.
        "git_commit": cmd(["git", "rev-parse", "HEAD"]) if os.path.exists(".git") else "none",
        "source_sha256": source_hash(),
        "libdiehard_sha256": sha256_file(bins.so),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bins = build(target)
    out_dir = os.path.abspath(OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)

    result = workloads.WORKLOADS[args.workload](
        bins, args.seed, args.seconds, bool(args.trace), out_dir)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result.tracer.write(os.path.join(out_dir, f"spans-{tag}.json"))
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "meta": metadata(bins),
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed,
        "fail_rate": {"value": result.failed / max(result.attempted, 1), "unit": "share"},
        "metrics": result.report, "notes": result.notes,
    }
    with open(os.path.join(out_dir, f"report-{tag}.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"report": report}))

    metrics = result.per_layer if args.trace else result.end_to_end
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
