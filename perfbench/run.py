#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload call_cnn --seed 7 --seconds 10 --trace 0

Run it from the root of a checkout. It builds `perfbench/harness` with
cargo (into `$CARGO_TARGET_DIR`, default `.bench_build`), runs the workload,
checks the outputs, and prints as its last stdout line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.

Journals go to `.bench_run/`. When the process may create a mount namespace,
that directory is a private tmpfs that exists only for the run, so fsync
latency of a shared disk does not enter the figures; otherwise it is a plain
directory and the run says so. Spans, full reports and the exact counts of
earlier runs go to `.bench_out/`. A run whose exact counts differ from an
earlier run of the same seed and size is reported as incorrect.
"""

import argparse
import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench" / "harness" / "Cargo.toml"
RUN_DIR = ROOT / ".bench_run"
OUT_DIR = ROOT / ".bench_out"
TIMEOUT_S = 170

CLONE_NEWNS = 0x00020000
MS_REC = 0x4000
MS_PRIVATE = 0x40000


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def private_tmpfs(mountpoint):
    """A pre-exec hook giving the child its own tmpfs at `mountpoint`."""
    libc = ctypes.CDLL(None, use_errno=True)

    def check(rc, what):
        if rc != 0:
            err = ctypes.get_errno()
            raise OSError(err, f"{what}: {os.strerror(err)}")

    def hook():
        check(libc.unshare(CLONE_NEWNS), "unshare")
        # Keep the new mount out of the parent's namespace.
        check(libc.mount(b"none", b"/", None, MS_REC | MS_PRIVATE, None), "make / private")
        check(
            libc.mount(b"tmpfs", str(mountpoint).encode(), b"tmpfs", 0, b"size=1g,mode=0700"),
            "mount tmpfs",
        )

    return hook


def build():
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HARNESS)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"building the harness failed (exit {done.returncode})")
    return target / "release" / "emoleak-perfbench"


def run_harness(binary, args, spans):
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--journal-dir", str(RUN_DIR),
        "--spans", str(spans),
    ] + (["--tiny"] if args.tiny else [])
    # The workload sees only its generated inputs: no inherited EMOLEAK_*
    # knobs change its configuration.
    env = {k: v for k, v in os.environ.items() if not k.startswith("EMOLEAK_")}
    try:
        child = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            preexec_fn=private_tmpfs(RUN_DIR),
        )
        storage = "tmpfs"
    except subprocess.SubprocessError:
        print("perfbench: no private tmpfs available; journals go to disk", file=sys.stderr)
        child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        storage = "disk"
    try:
        out, _ = child.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"the workload did not finish within {TIMEOUT_S} s")
    if child.returncode != 0:
        sys.stdout.write(out)
        fail(f"the workload exited with {child.returncode}")
    lines = out.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("REPORT "):
        sys.stdout.write(out)
        fail("the workload printed no report")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1][len("REPORT "):]), storage


def check_counts(args, binary, counts):
    """Exact counts must repeat on every run of one seed and size with the
    same build; a new build starts a new record."""
    size = "tiny" if args.tiny else f"{args.seconds}s"
    path = OUT_DIR / f"counts-{args.workload}-seed{args.seed}-{size}.json"
    build_id = hashlib.sha256(binary.read_bytes()).hexdigest()
    record = json.loads(path.read_text()) if path.exists() else {}
    if record.get("build") != build_id:
        path.write_text(json.dumps({"build": build_id, "counts": counts}, indent=1))
        return []
    before = record["counts"]
    return [
        f"exact count {k} is {counts.get(k)} but was {before.get(k)} on an earlier run of this seed"
        for k in sorted(set(before) | set(counts))
        if before.get(k) != counts.get(k)
    ]


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found next to perfbench/")
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} holds no EmoLeak sources to build")

    binary = build()
    RUN_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    report, storage = run_harness(binary, args, OUT_DIR / f"spans-{tag}.tsv")

    problems = list(report["problems"]) + check_counts(args, binary, report["counts"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, absent = {}, []
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                problems.append(f"end-to-end metric {m['name']} was not measured")
            absent.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            problems.append(f"{m['name']} is in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if absent:
        print(f"layers not on this workload's path (reported as 0): {', '.join(absent)}")
    print(f"journals on {storage}; spans in {OUT_DIR.name}/spans-{tag}.tsv")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    result = {
        "correct": bool(report["correct"]) and not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    full = dict(report, storage=storage, problems=problems, absent=absent, result=result)
    (OUT_DIR / f"report-{tag}.json").write_text(json.dumps(full, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
