#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate and failure mode.

Run from the root of a checkout (the first run builds, see run.py):

    python3 perfbench/selftest.py

1. Corrupts one value of a copy of the laptop golden (one cycle count of
   the first workload record, plus one) and runs the suite workload against
   the copy: run.py must report failed > 0, correct false, and exit
   non-zero.
2. Runs run.py in a directory that holds only BENCHMARK.json and the
   benchmark's own files: it must exit non-zero without printing a result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

WORK = Path(".bench_build") / "selftest"
BENCH = [sys.executable, "perfbench/run.py", "--workload", "suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"]


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    ok = True

    golden = json.loads(Path("tools/baseline_laptop.json").read_text())
    golden["workloads"][0]["base_inf"] += 1
    corrupted = WORK / "corrupted_golden.json"
    corrupted.write_text(json.dumps(golden, indent=2))
    done = subprocess.run([*BENCH, "--golden", str(corrupted)],
                          capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"corrupted golden: exit {done.returncode}, failed "
          f"{result['failed']} of {result['attempted']} entries")
    if done.returncode == 0 or result["failed"] == 0 or result["correct"]:
        print("FAIL: a corrupted golden must fail the run")
        ok = False

    bare = WORK / "bare"
    shutil.copytree("perfbench", bare / "perfbench")
    shutil.copy("BENCHMARK.json", bare)
    done = subprocess.run(BENCH, cwd=bare, capture_output=True, text=True,
                          timeout=180)
    print(f"without the repository: exit {done.returncode}, "
          f"stderr: {done.stderr.strip()}")
    if done.returncode == 0 or done.stdout.strip():
        print("FAIL: without the repository it must exit non-zero, silently")
        ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
