"""Time one set-up in a fresh interpreter; print it in seconds and the
host-speed factor measured right after it.

Set-up is importing ``conic_pricer`` and loading and validating every model
and payoff a workload starts with.  The inputs are rebuilt with the standard
library before the clock starts, so the package's own imports (numpy
included) are timed.  The host-speed probe (``hostspeed.py``) then runs in
the same process, whose speed is what the set-up saw: on a shared host the
same set-up takes 0.19 s or 0.35 s from one interpreter to the next, and a
probe in the parent process does not follow that.  ``run.py`` starts this
script several times and keeps the median.

    python3 perfbench/setup_child.py --workload tree --seed 1
"""

import argparse
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBES = 9


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    pairs = workloads.make_workload(args.workload, args.seed, ROOT).inputs()
    t0 = time.perf_counter()
    from conic_pricer import cli

    for model_data, payoff_data in pairs:
        model = cli.model_from_dict(model_data)
        cli.payoff_from_dict(model, payoff_data)
    elapsed = time.perf_counter() - t0
    import hostspeed

    probe_s = statistics.median(hostspeed.probe() for _ in range(PROBES))
    print(f"{elapsed:.9f} {probe_s / hostspeed.REF_S:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
