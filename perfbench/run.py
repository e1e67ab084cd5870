"""Benchmark runner for cuspmotive's exact pipeline.

    python3 perfbench/run.py --workload {theorem-sweep,motive-one,tables} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` there, nothing is installed.  The runner is a closed loop with a
single client: it starts one workload process at a time
(``workloads.py``), waits for it, and starts the next until ``--seconds``
have passed and at least ``MIN_PROCESSES`` have run.  Set-up time (spawn to ``cuspmotive.cli``
imported) is sampled on every process plus a fixed number of set-up-only
processes.  Every output is checked against a closed form; any failure
makes the run exit 1.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the run's processes.  ``--trace 1`` runs the workload once untraced
and once traced and reports the per-layer metrics, with the tracing
overhead as traced minus untraced wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of each run (machine,
load, seed, every sample) is appended to ``perfbench/out/runs.jsonl``, and
the spans of a traced run are saved next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_SCRIPT = HERE / "workloads.py"

SETUP_SPAWNS = 15  # set-up-only processes per run, on top of one per workload process
MIN_PROCESSES = 3  # a run's median never rests on fewer workload processes
RUN_DEADLINE_S = 170.0  # every process of a run must end by then


class RunFailed(Exception):
    pass


def source_id() -> dict:
    """Git commit when the root is a git checkout, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def spawn(workload: str, seed: int, tmp: Path, deadline: float,
          trace: bool = False, setup_only: bool = False) -> dict:
    """Run one workload process; returns its report plus the parent-timed set-up."""
    cmd = [sys.executable, str(WORKLOAD_SCRIPT), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--tmp", str(tmp)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{workload} process passed the run deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RunFailed(f"{workload} process failed (exit {proc.returncode})")
    report = json.loads(rest.strip().splitlines()[-1]) if not setup_only else {}
    report["setup_s"] = setup
    return report


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cuspmotive benchmark runner")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "cuspmotive" / "__init__.py").is_file():
        print(f"no cuspmotive sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    deadline = t0 + RUN_DEADLINE_S
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        **source_id(),
    }
    reports, traced = [], None
    try:
        # The first process after a checkout compiles bytecode; keep it out of set-up.
        spawn(args.workload, args.seed, tmp, deadline, setup_only=True)
        setups = [spawn(args.workload, args.seed, tmp, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_SPAWNS)]
        while True:
            reports.append(spawn(args.workload, args.seed, tmp, deadline))
            if args.trace or (len(reports) >= MIN_PROCESSES
                              and time.perf_counter() - t0 >= args.seconds):
                break
        if args.trace:
            traced = spawn(args.workload, args.seed, tmp, deadline, trace=True)
            shutil.move(tmp / "spans.json",
                        OUT / f"spans-{args.workload}-seed{args.seed}.json")
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    setups += [r["setup_s"] for r in reports]
    samples = {
        "wall_s": [r["wall_s"] for r in reports],
        "cpu_s": [r["cpu_s"] for r in reports],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
        "setup_s": setups,
    }
    done = reports + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    for r in done:
        for msg in r["failures"]:
            print(f"FAILED {msg}", file=sys.stderr)

    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - summary(samples["wall_s"])["median"]
        from tracing import NAMED_LAYERS

        wanted = bench["per_layer"]
        for name in dict.fromkeys([*NAMED_LAYERS, *(m["name"] for m in wanted)]):
            print(f"{name}: {layers[name]:.6g}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in wanted}
        record["layers"] = layers
    else:
        stats = {name: summary(vals) for name, vals in samples.items()}
        for name, s in stats.items():
            print(f"{name}: median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  n {s['n']}")
        print(f"error_rate: {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
        wanted = bench["end_to_end"]
        metrics = {m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]}
                   for m in wanted}
        record["summary"] = stats

    record.update(loadavg_end=os.getloadavg(), samples=samples, attempted=attempted,
                  failed=failed, metrics={k: v["value"] for k, v in metrics.items()})
    print("record: " + json.dumps({k: record[k] for k in (
        "git_sha", "src_sha256", "python", "nproc", "loadavg_start", "loadavg_end", "seed")}))
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
