"""Harness self-check at tiny input sizes; takes about half a minute.

    python3 bench/selfcheck.py

For every workload (`corpus_mock` too, which BENCHMARK.json leaves out),
with tracing off and on, it checks that the run is correct and emits
exactly the metrics BENCHMARK.json names, each with its unit, and that two
runs of one seed give the same outputs.
It then injects a wrong verdict into a corpus run and a slicing fault into
a monolith run and checks that both are counted as failures. Exits nonzero
on the first check that does not hold.
"""

from __future__ import annotations

import json
import sys

import run as bench
from ponzilens import detect, evaluation

SCALE = 0.02
SECONDS = 1.0
SEED = 7


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck: {what}")


def failed_frac(outcome: bench.Outcome) -> float:
    (line,) = [n for n in outcome.notes if n.startswith("failed_frac ")]
    return float(line.split()[1])


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in bench.WORKLOADS:
        for trace in (False, True):
            out = bench.run(workload, SEED, SECONDS, trace, SCALE)
            got = {name: m["unit"] for name, m in out.result["metrics"].items()}
            expect(got == wanted[trace], f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
            expect(all(isinstance(m["value"], float) for m in out.result["metrics"].values()),
                   f"{workload} trace={trace}: a metric value is not a float")
            expect(out.result["correct"] and out.result["failed"] == 0, f"{workload} trace={trace}: run failed")
            expect(failed_frac(out) == 0.0, f"{workload} trace={trace}: failed_frac is not 0")
            if not trace:
                again = bench.run(workload, SEED, SECONDS, False, SCALE)
                common = out.digests.keys() & again.digests.keys()
                expect(bool(common), f"{workload}: same-seed runs share no input")
                expect(all(out.digests[k] == again.digests[k] for k in common),
                       f"{workload}: same seed, different outputs")
        print(f"selfcheck: {workload} ok")

    original = evaluation.detect_contract

    def wrong_once(unit, *args, **kwargs):
        report = original(unit, *args, **kwargs)
        if not flipped:
            flipped.append(report.contract_id)
            report.final_verdict = not report.final_verdict
        return report

    flipped: list[str] = []
    evaluation.detect_contract = wrong_once
    try:
        out = bench.run("corpus_mock", SEED, SECONDS, False, SCALE)
    finally:
        evaluation.detect_contract = original
    expect(flipped and not out.result["correct"] and out.result["failed"] >= 1,
           "an injected wrong verdict was not counted")
    expect(failed_frac(out) > 0.0, "an injected wrong verdict is missing from failed_frac")

    select = detect.select_functions
    detect.select_functions = lambda *args, **kwargs: select(*args, **kwargs)[:-1]
    try:
        out = bench.run("monolith", SEED, SECONDS, False, SCALE)
    finally:
        detect.select_functions = select
    expect(not out.result["correct"] and out.result["failed"] == out.result["attempted"],
           "an injected slicing fault was not counted")
    print("selfcheck: injected faults counted; all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
