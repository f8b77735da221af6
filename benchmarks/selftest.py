"""Show that the benchmark's correctness gate has teeth.

    python3 benchmarks/selftest.py

Runs the benchmark command on the ``discrete`` workload three times, each
time with one fault put into the emitted records before the gate: one
status flipped to ``fail``, one record dropped, one extra record.  Each
must raise failed_share above 0 and make the command exit non-zero.
Exits 0 when all three are caught.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import INJECTIONS

HERE = Path(__file__).resolve().parent


def main() -> int:
    caught_all = True
    for how in INJECTIONS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "discrete", "--seed", "1",
             "--seconds", "1", "--trace", "0", "--inject", how],
            capture_output=True, text=True, cwd=HERE.parent, check=False,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        share = result["failed"] / result["attempted"]
        caught = proc.returncode != 0 and share > 0 and not result["correct"]
        caught_all &= caught
        print(f"{how:<6} exit {proc.returncode}  failed_share {share:.6f}  "
              f"({result['failed']} of {result['attempted']})  "
              f"{'caught' if caught else 'NOT CAUGHT'}")
    return 0 if caught_all else 1


if __name__ == "__main__":
    sys.exit(main())
