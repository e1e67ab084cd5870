"""Summarize recorded runs across seeds.

    python3 perfbench/summarize.py [--json] [perfbench/out/runs.jsonl ...]

Groups the untraced runs by workload and prints, for each end-to-end
metric, the median, quartiles and count of the per-run values, and the
spread (q3 - q1) / median that BENCHMARK.json's bounds are set against.
Traced runs are listed per workload with their per-layer counts, which
must repeat exactly.  ``--json`` prints the end-to-end figures as one
JSON document instead (the form of ``baseline.json``).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    as_json = "--json" in argv
    paths = [Path(p) for p in argv if p != "--json"] or [HERE / "out" / "runs.jsonl"]
    runs = [json.loads(line) for p in paths for line in p.read_text().splitlines() if line]
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    timed = {m["name"] for m in bench["per_layer"] if m["unit"] == "s"}

    untraced = defaultdict(list)
    for run in runs:
        if not run["trace"]:
            untraced[run["workload"]].append(run)
    if as_json:
        doc = {}
        for workload, group in untraced.items():
            doc[workload] = {"runs": len(group), "seeds": [r["seed"] for r in group],
                             "git_sha": sorted({str(r["git_sha"]) for r in group}),
                             "src_sha256": sorted({r["src_sha256"] for r in group})}
            for name in bounds:
                q1, med, q3 = statistics.quantiles([r["metrics"][name] for r in group], n=4)
                doc[workload][name] = {"median": med, "q1": q1, "q3": q3, "n": len(group)}
        print(json.dumps(doc, indent=1))
        return 0
    for workload, group in untraced.items():
        print(f"{workload}: {len(group)} runs, seeds {[r['seed'] for r in group]}, "
              f"{sum(r['failed'] for r in group)} failed of {sum(r['attempted'] for r in group)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in group]
            if len(values) < 2:
                print(f"  {name:12s} {values[0]:.6g} (one run)")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"  {name:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"n {len(values)}  spread {spread:.3f} (bound {bound}, "
                  f"{'ok' if spread < bound / 3 else 'WIDE'})")

    traced = defaultdict(list)
    for run in runs:
        if run["trace"]:
            traced[run["workload"]].append(run)
    for workload, group in traced.items():
        counts = [{k: v for k, v in r["metrics"].items() if k not in timed}
                  for r in group]
        same = all(c == counts[0] for c in counts)
        print(f"{workload} traced: {len(group)} runs, counts "
              f"{'identical' if same else 'DIFFER'}: {counts[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
