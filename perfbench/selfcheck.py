"""Quick check of the benchmark itself, in well under a minute:

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at toy size, untraced once and traced
twice, and checks that the last output line has exactly the four result keys,
that every job passed its checks, that the printed metric names and units are
exactly those BENCHMARK.json declares, and that the traced exact counts repeat
across the two traced runs.  Finally it runs the benchmark in a directory
holding only BENCHMARK.json and the benchmark's paths, where it must fail
without printing a result.  Exits 1 if any check fails.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(bench, args, cwd):
    cmd = [sys.executable if c == "python3" else c for c in bench["command"]]
    return subprocess.run(cmd + args, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        trace: {m["name"]: m["unit"] for m in bench[group]}
        for trace, group in ((0, "end_to_end"), (1, "per_layer"))
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            p = run(bench, ["--workload", workload, "--seed", "1", "--seconds", "1",
                            "--trace", str(trace), "--size", "toy"], ROOT)
            where = f"{workload} --trace {trace}"
            res = last_json(p.stdout)
            if p.returncode != 0 or res is None:
                problems.append(f"{where}: exit {p.returncode}, stderr {p.stderr[-500:]!r}")
                continue
            if set(res) != KEYS:
                problems.append(f"{where}: result keys {sorted(res)}")
                continue
            if not res["correct"] or res["failed"]:
                problems.append(f"{where}: correct={res['correct']} failed={res['failed']}; "
                                f"{p.stdout.splitlines()[-2][-500:]}")
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{where}: metric names/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(declared[trace].items()))}")
            if trace:
                counts.append({k: m["value"] for k, m in res["metrics"].items()
                               if m["unit"] == "count"})
        if len(counts) == 2 and counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{workload}: traced counts differ between runs: {diff}")
        print(f"{workload}: done", flush=True)

    with tempfile.TemporaryDirectory(prefix=".selfcheck-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        p = run(bench, ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                        "--seconds", "1", "--trace", "0"], tmp)
        if p.returncode == 0 or last_json(p.stdout) is not None:
            problems.append("benchmark did not fail in a directory without the program")

    for problem in problems:
        print("FAIL", problem)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
