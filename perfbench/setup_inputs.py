"""One benchmark set-up in a fresh interpreter: import crashlearn, then write
the workload's inputs into --workdir. Prints {"import_s", "inputs_s"}.

Run from the root of a checkout with PYTHONPATH=src:
    python3 perfbench/setup_inputs.py --workload detect --seed 0 --workdir DIR
"""

import argparse
import json
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import crashlearn  # noqa: F401  (the import is what is timed)
    imported = time.perf_counter()
    from workloads import make_workload
    make_workload(args.workload).generate(Path(args.workdir), args.seed)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "inputs_s": done - imported}))


if __name__ == "__main__":
    main()
