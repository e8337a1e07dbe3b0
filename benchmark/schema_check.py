#!/usr/bin/env python3
"""Schema smoke test: runs every BENCHMARK.json workload for 2 s, untraced
and traced, and checks the result line against the spec.

  schema_check.py --bench build-bench/hdmap_bench --spec BENCHMARK.json

Checks: the run exits 0 with correct=true; its last stdout line is a JSON
object with exactly correct/attempted/failed/metrics; the metrics are
exactly the spec's end_to_end (untraced) or per_layer (traced) names;
every name matches ^[A-Za-z0-9_.-]+$, carries the spec's unit, and has a
finite value; end-to-end values are nonzero.
"""

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    problems = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end",
                "per_layer"}
    if set(spec) != expected:
        problems.append(f"spec keys {sorted(spec)} != {sorted(expected)}")
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200:
            problems.append(f"bad workload entry {w}")
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            names.append(m["name"])
            if set(m) != keys:
                problems.append(f"{group} entry {m} has keys {sorted(m)}")
            if not UNIT.match(m["unit"]):
                problems.append(f"bad unit {m['unit']!r} on {m['name']}")
            if m["better"] not in ("lower", "higher"):
                problems.append(f"bad 'better' on {m['name']}")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"bound of {m['name']} outside (0, 0.25]")
    for n in names:
        if not NAME.match(n):
            problems.append(f"bad name {n!r}")
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (s, lower) is missing")
    return problems


def check_run(bench, spec, workload, trace, seconds, tmp):
    cmd = [bench, "--workload", workload, "--seed", "1", "--seconds",
           str(seconds), "--trace", str(trace), "--smoke", "--tmp", tmp]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout[-3000:]}"
                f"{proc.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append(f"{where}: failed must be a whole number")
    group = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m for m in group}
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"{where}: missing {sorted(set(want) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(want))}")
    for name, m in got.items():
        value = m.get("value")
        if not NAME.match(name):
            problems.append(f"{where}: bad metric name {name!r}")
        if name in want and m.get("unit") != want[name]["unit"]:
            problems.append(f"{where}: {name} unit {m.get('unit')!r} != "
                            f"{want[name]['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r} is not finite")
        elif not trace and value == 0:
            problems.append(f"{where}: end-to-end {name} is 0")
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench", required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    tmp = str(Path(args.bench).resolve().parent / "tmp")
    Path(tmp).mkdir(exist_ok=True)
    problems = check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(args.bench, spec, w["name"], trace,
                              args.seconds, tmp)
            status = "ok" if not found else "FAIL"
            print(f"{w['name']} --trace {trace}: {status}")
            problems += found
    for p in problems:
        print(f"PROBLEM: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
