"""Reproduce the paper's TPC-W validation (Figures 6-9) in one script.

For each TPC-W mix and both replication designs, this predicts performance
from the standalone profile and measures it on the simulated prototypes —
the exact comparison behind the paper's "predictions within 15%" claim.

Runs the full sweep; expect a couple of minutes.

Run:  python examples/tpcw_validation.py [--fast]
"""

import sys

from repro.engine import run_scenario
from repro.experiments import ExperimentSettings


def main() -> None:
    fast = "--fast" in sys.argv
    settings = ExperimentSettings.fast() if fast else ExperimentSettings()

    worst_throughput_error = 0.0
    for name in ("figure6", "figure8"):
        figure = run_scenario(name, settings, jobs=1, cache=None)
        print(figure.to_text())
        worst_throughput_error = max(worst_throughput_error,
                                     figure.max_error())
        print()
    for name in ("figure7", "figure9"):
        figure = run_scenario(name, settings, jobs=1, cache=None)
        print(figure.to_text())
        print()

    verdict = "PASS" if worst_throughput_error <= 0.15 else "FAIL"
    print(f"worst TPC-W throughput prediction error: "
          f"{worst_throughput_error:.1%} -> {verdict} "
          "(paper claims <= 15%)")


if __name__ == "__main__":
    main()
