"""Self-test of the benchmark, at a tiny size.

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, that a wrong output is counted as a failure, that a
crashing operation is counted without ending the run, and that a repeated
query printing other bytes is counted.  Prints one line per
check and exits 0 when all of them hold.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tvdp  # noqa: E402
import tvdp.cli  # noqa: E402

SEED = 7


def _require(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def check_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in run.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(workload, SEED, 0, trace, tiny=True)
            got = {name: unit for name, (_, unit, _) in result["metrics"].items()}
            want = {metric["name"]: metric["unit"] for metric in spec[key]}
            _require(got == want, f"{workload} {key}: emitted {got}, BENCHMARK.json {want}")
            _require(result["correct"], f"{workload}: {dict(result['failures'])}")
    print("ok: every metric is emitted with its unit on every workload")


def check_wrong_output_counted():
    original = tvdp.compose_exact

    def perturbed(budget, k):
        # raise delta_1 halfway to delta_0, which keeps the ledger monotone
        ledger = original(budget, k)
        entries = list(ledger.entries)
        delta = 0.5 * (entries[0].delta + entries[1].delta)
        entries[1] = dataclasses.replace(
            entries[1], delta=delta, log_one_minus_delta=math.log1p(-delta)
        )
        return dataclasses.replace(ledger, entries=tuple(entries))

    tvdp.compose_exact = perturbed
    try:
        result = run.run("ledger", SEED, 0, False, tiny=True)
    finally:
        tvdp.compose_exact = original
    passes = len(result["passes"])
    _require(not result["correct"], "a perturbed ledger passed its check")
    _require(result["failed"] == passes, f"{result['failed']} failures in {passes} passes")
    print(f"ok: a ledger with delta_1 perturbed counts as failed ({dict(result['failures'])})")


def check_crash_counted():
    original = tvdp.cli.laplace_tv

    def crash(epsilon):
        raise RuntimeError("injected crash")

    tvdp.cli.laplace_tv = crash
    try:
        result = run.run("queries", SEED, 0, False, tiny=True)
    finally:
        tvdp.cli.laplace_tv = original
    checked = result["checked"]  # the timed passes and the repeat of pass 0
    injected = sum(n for reason, n in result["failures"].items() if "injected crash" in reason)
    _require(injected == len(checked), f"{injected} injected crashes counted in {len(checked)} passes")
    _require(result["correct"], f"other outputs went wrong: {dict(result['failures'])}")
    _require(
        result["attempted"] == len(checked) * len(checked[0].latencies),
        "the run did not go on after the crash",
    )
    print(f"ok: a crashing argv is counted and the run goes on ({injected} of {result['attempted']})")


def check_repeat_compared():
    original = tvdp.cli.laplace_tv
    calls = []

    def drifting(epsilon):
        # within the quadrature tolerance, but a different number each call
        calls.append(epsilon)
        return original(epsilon) + 1e-9 * len(calls)

    tvdp.cli.laplace_tv = drifting
    try:
        result = run.run("queries", SEED, 0, False, tiny=True)
    finally:
        tvdp.cli.laplace_tv = original
    differs = {reason: n for reason, n in result["failures"].items() if "differs" in reason}
    _require(not result["correct"] and list(differs.values()) == [1],
             f"a repeat with other bytes was not counted once: {dict(result['failures'])}")
    print("ok: a repeated call that prints other bytes counts as failed")


def main() -> int:
    check_metric_names()
    check_wrong_output_counted()
    check_crash_counted()
    check_repeat_compared()
    return 0


if __name__ == "__main__":
    sys.exit(main())
