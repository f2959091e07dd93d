"""Smoke test of the benchmark itself, at toy size.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json with ``--size tiny``, untraced and
traced, plus ``--workload all`` once, and checks that each run exits 0,
ends with the four-key result object, reports no failed operation, and
emits every end-to-end (untraced) or per-layer (traced) metric named in
BENCHMARK.json, with its unit and a finite value. Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int) -> tuple[dict | None, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def problems_in(result: dict, expected: dict[str, str]) -> list[str]:
    out = []
    if set(result) != RESULT_KEYS:
        out.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        out.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        out.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            out.append(f"missing {name}")
        elif m.get("unit") != unit:
            out.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        elif isinstance(m.get("value"), bool) or not math.isfinite(m.get("value")):
            out.append(f"{name}: value {m.get('value')!r}")
    out += [f"unexpected {name}" for name in set(metrics) - set(expected)]
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = [w["name"] for w in spec["workloads"]]
    failures = 0
    for workload in workloads:
        for trace in (0, 1):
            result, error = run(workload, trace)
            problems = [error] if result is None else problems_in(result, expected[trace])
            failures += bool(problems)
            status = "FAIL " + "; ".join(problems) if problems else "ok"
            print(f"{workload:14s} trace={trace} {status}")
    combined, error = run("all", 0)
    expected_all = {f"{w}.{name}": unit for w in workloads for name, unit in expected[0].items()}
    problems = [error] if combined is None else problems_in(combined, expected_all)
    failures += bool(problems)
    print(f"{'all':14s} trace=0 {'FAIL ' + '; '.join(problems) if problems else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
