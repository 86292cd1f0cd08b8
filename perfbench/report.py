"""Run every workload untraced and traced, and print every metric by name
with its unit together with the result of the correctness checks.

    python3 perfbench/report.py --seconds 5 --seed 1

Exits 1 if any run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"== {workload['name']} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            print(
                f"== {workload['name']} trace={trace} correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            for name, metric in result["metrics"].items():
                print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
