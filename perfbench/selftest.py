#!/usr/bin/env python3
"""The benchmark's own test: its output check must catch a wrong output.

    python3 perfbench/selftest.py

Runs a short selective_indexed run twice through run.py: once as is,
which must report correct: true with no failures, and once with every
reference output deliberately altered (--corrupt-reference), which must
print MISMATCH lines, report correct: false with failures, and exit
nonzero. Exits 0 when both hold.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(*extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "selective_indexed", "--seed", "1",
         "--seconds", "2", "--trace", "0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


def main():
    failures = []
    code, result, _ = run()
    if code != 0 or not result or not result["correct"] or result["failed"]:
        failures.append(f"clean run: exit {code}, result {result}")
    code, result, stderr = run("--corrupt-reference")
    if code == 0:
        failures.append("altered reference: run exited 0")
    if not result or result["correct"] or result["failed"] == 0:
        failures.append(f"altered reference: result {result}")
    if "MISMATCH" not in stderr:
        failures.append("altered reference: no MISMATCH printed")
    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "failed" if failures else "passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
