"""Quick self-test of the benchmark at tiny problem sizes (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that every metric declared in BENCHMARK.json is emitted with
its unit on every workload, traced and untraced; that healthy load has
no failed requests; that one injected non-finite right-hand side is
counted as a failed request without marking the run incorrect; and that
every per-layer metric names what it should move in expectations.json.
"""

from __future__ import annotations

import json
import os
import sys

import run  # pins BLAS before numpy is imported

SECONDS = 1.0
SEED = 7


def check(condition: bool, message: str, problems: list) -> None:
    if not condition:
        problems.append(message)


def main() -> int:
    declared = run.declared_metrics()
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "expectations.json")) as fh:
        expectations = json.load(fh)["per_layer"]
    problems: list = []
    check(
        set(expectations) == set(declared["per_layer"]),
        "expectations.json and BENCHMARK.json list different per-layer metrics",
        problems,
    )
    run.import_library()
    from workloads import WORKLOADS

    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, details = run.run(name, SEED, SECONDS, trace, tiny=True)
            metrics = result["metrics"]
            check(
                list(metrics) == list(declared[kind]),
                f"{name}: {kind} metrics differ from BENCHMARK.json",
                problems,
            )
            for metric, unit in declared[kind].items():
                value = metrics.get(metric, {})
                check(value.get("unit") == unit, f"{name}: {metric} lacks unit {unit}", problems)
                check(
                    isinstance(value.get("value"), float),
                    f"{name}: {metric} is not a number", problems,
                )
            check(result["correct"], f"{name} trace={trace}: not correct {details['checks']}", problems)
            check(
                result["failed"] == 0,
                f"{name} trace={trace}: failed_frac {details['failed_frac']} on healthy load",
                problems,
            )
        result, details = run.run(name, SEED, SECONDS, False, tiny=True, poison_rhs=True)
        check(
            result["failed"] >= 1 and details["failed_frac"] > 0,
            f"{name}: the non-finite right-hand side was not counted as failed",
            problems,
        )
        check(result["correct"], f"{name}: a poisoned request produced a wrong answer", problems)
        print(f"{name}: ok" if not problems else f"{name}: {len(problems)} problem(s) so far")
    for problem in problems:
        print("FAIL:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
