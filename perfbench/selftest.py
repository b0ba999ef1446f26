#!/usr/bin/env python3
"""Self-test of the benchmark, at the tiny size of each workload.

    python3 perfbench/selftest.py

For every workload it makes two untraced runs with one seed, one with a
second seed, and one traced run with the first seed, then checks that:

- every run is correct and nothing failed;
- the runs of one seed give identical exact counts and digests, traced or not;
- the second seed gives different digests, so the seed reaches the inputs;
- every end-to-end and per-layer metric of BENCHMARK.json is printed with its
  unit, and the layers on the workload's path were measured (samples > 0).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SEED_A, SEED_B = 101, 202

# Per-layer metrics (by name prefix) that each workload must measure.
ON_PATH = {
    "call_cnn": [
        "setup.", "features.", "ml.classify_us.", "stream.", "admission.admit_us", "durable.",
    ],
    "clip_classical": [
        "setup.", "features.detect", "features.table2", "ml.classify_us.classical", "stream.",
        "admission.admit_us", "durable.",
    ],
    "fleet_chunks": ["fleet.", "exec."],
}
# Lines the human-readable output must carry besides the metrics.
PRINTED = {
    "call_cnn": ["failed_share", "ladder order", "tracing overhead"],
    "clip_classical": ["failed_share", "ladder order", "tracing overhead"],
    "fleet_chunks": ["failed_share", "run length:", "scrub ticks take", "tracing overhead"],
}


def run(workload, seed, trace):
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {done.returncode}\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().split("\n")[-1])
    full = json.loads((OUT / f"report-{workload}-seed{seed}-trace{trace}-tiny.json").read_text())
    return result, full, done.stdout


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    for stale in OUT.glob("counts-*-tiny.json"):
        stale.unlink()
    failures = []

    def expect(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for w in (w["name"] for w in spec["workloads"]):
        print(f"{w}:")
        a1, full_a1, out_a1 = run(w, SEED_A, 0)
        a2, full_a2, _ = run(w, SEED_A, 0)
        b, full_b, _ = run(w, SEED_B, 0)
        t, full_t, out_t = run(w, SEED_A, 1)
        for name, r in [("first", a1), ("repeat", a2), ("second seed", b), ("traced", t)]:
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                   f"{name} run is correct with nothing failed")
        expect(full_a1["counts"] == full_a2["counts"] == full_t["counts"],
               "one seed repeats every exact count and digest, traced or not")
        digests = [k for k in full_a1["counts"] if k.startswith("digest.")]
        expect(bool(digests) and all(full_a1["counts"][k] != full_b["counts"][k] for k in digests),
               f"a second seed changes the digests ({', '.join(digests)})")
        for result, wanted, kind in [(a1, spec["end_to_end"], "end-to-end"),
                                     (t, spec["per_layer"], "per-layer")]:
            units = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"every {kind} metric is printed with its unit")
        expect(all(v["value"] > 0 for v in a1["metrics"].values()),
               "no end-to-end metric is 0")
        measured = full_t["metrics"]
        on_path = [m["name"] for m in spec["per_layer"]
                   if any(m["name"].startswith(p) for p in ON_PATH[w])]
        missing = [n for n in on_path if measured.get(n, {}).get("n", 0) == 0]
        expect(not missing, f"layers on the path are measured ({len(on_path)} metrics)"
               + (f"; missing {missing}" if missing else ""))
        text = out_a1 + out_t
        expect(all(p in text for p in PRINTED[w]), f"output prints {', '.join(PRINTED[w])}")
    if failures:
        sys.exit(f"selftest: {len(failures)} check(s) failed")
    print("selftest: ok")


if __name__ == "__main__":
    main()
