"""Time a workload's set-up in a fresh process: import trialcraft and parse
the workload's plans and DGP specs. Prints the seconds taken.

    python3 perfbench/setup_probe.py <path to src> <workload>
"""
import sys
import time

sys.path.insert(0, sys.argv[1])
import specs  # noqa: E402  (plain data; loaded before the clock starts)

workload = sys.argv[2]
start = time.perf_counter()

import trialcraft  # noqa: E402,F401
from trialcraft.plans import plan_from_dict  # noqa: E402
from trialcraft.simulation import DgpSpec  # noqa: E402

if workload == "analyze_wide":
    from trialcraft import cli  # noqa: E402,F401

    plan_from_dict(specs.analyze_plan(0))
else:
    for p in specs.MC_WORKLOADS[workload]:
        plan_from_dict(p.plan)
        DgpSpec(**p.dgp)

print(repr(time.perf_counter() - start))
