"""The benchmark's traced run still finds every layer it reports.

``perfbench/tracing.py`` wraps the package's public functions by name, so
renaming or deleting one silently drops a per-layer metric.  The tracer
monkeypatches the package, so it runs in a separate process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import cuspmotive, cuspmotive.cli
import tracing
report = tracing.Tracer(cuspmotive).report(out_bytes=0, wall_s=0.0)
print(json.dumps({"keys": sorted(report), "named": list(tracing.NAMED_LAYERS)}))
"""

# Added by perfbench/run.py from the untraced runs, not by the tracer.
RUNNER_KEYS = {"trace.overhead_s"}


def test_tracer_reports_every_named_layer():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    doc = json.loads(proc.stdout.splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = set(doc["named"]) | {layer["name"] for layer in bench["per_layer"]}
    missing = wanted - RUNNER_KEYS - set(doc["keys"])
    assert not missing, f"tracer report lacks {sorted(missing)}"
