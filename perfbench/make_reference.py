"""Record reference.json: final beliefs of every simulation seed the
workloads can use, for both simulation configs, from the checked-out
crashlearn. Validators compare each run's outputs with it.

Run from the root of a checkout (takes a few minutes):
    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
from pathlib import Path

from crashlearn import SimulationConfig, min_final_posterior, run_execution

from workloads import CONFIGS, REFERENCE_SEEDS, simulation_payload


def final_state(mode: str, iterations: int, seed: int) -> dict:
    trace = run_execution(SimulationConfig.from_dict(
        simulation_payload(mode, iterations, seed)))
    last = trace.records[-1]
    return {"min_posterior": min_final_posterior(trace),
            "final_log_belief": {str(a): last[a].log_belief.tolist()
                                 for a in sorted(trace.final_alive)}}


def main() -> None:
    reference = {}
    for label, (mode, iterations) in CONFIGS.items():
        reference[label] = {str(seed): final_state(mode, iterations, seed)
                            for seed in REFERENCE_SEEDS}
        print(f"{label}: {len(REFERENCE_SEEDS)} seeds", flush=True)
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


if __name__ == "__main__":
    main()
