"""Time one set-up in a fresh interpreter and print the seconds.

    python3 benchmarks/setup_once.py WORKLOAD SCENARIO_DIR SEED
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from workloads import WORKLOADS, Bench

    name, directory, seed = sys.argv[1:4]
    print(Bench(WORKLOADS[name], Path(directory), int(seed)).setup())
