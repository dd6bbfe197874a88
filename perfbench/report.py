"""Run every workload untraced and traced, and print every metric by name and unit.

Usage, from the root of a source checkout:

    python3 perfbench/report.py [--seed 0] [--seconds 25]

Each workload runs in its own process (so ``peak_rss_mb`` is its own),
one after another.  Exits non-zero if any run fails or reports
incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            info = json.loads(lines[-2].split(" ", 1)[1])
            print(f"# {workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"host_probe_ms={info['host_probe_ms']}")
            for line in lines[:-2]:
                print(line)
            if not result["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
