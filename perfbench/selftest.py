"""Self-test of the benchmark harness at a tiny instance count.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics run.py prints, that every
workload prints all of them with their units in both modes, that the output
checks fire on a tampered report, and that the harness refuses to run without
the program beside it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import spans
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_declared_metrics() -> None:
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCH["end_to_end"]]
    assert declared == list(run.END_TO_END), declared
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
    assert declared == list(spans.METRICS), declared
    assert {w["name"] for w in BENCH["workloads"]} <= set(workloads.WORKLOADS)


def run_tiny(workload: str, trace: int, cwd=run.ROOT) -> tuple[int, str]:
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(run.DEFAULT_SEED), "--seconds", "0.2", "--instances", "4",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return res.returncode, res.stdout


def check_printed_metrics() -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_tiny(workload, trace)
            assert code == 0, (workload, trace, out[-2000:])
            result = json.loads(out.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (name, v)
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics with units")


def check_tampering_is_caught() -> None:
    nk = run.import_program()
    phis = workloads.generate(nk, workloads.WORKLOADS["survey-r2"], run.DEFAULT_SEED, 4)
    for phi in phis:
        text = workloads.run_survey(nk, phi)
        assert workloads.check_survey(phi, text) == [], text
        data = json.loads(text)
        data["classes"][0]["ind"] += 1
        assert workloads.check_survey(phi, nk.io.dump_report(data)), "index tamper missed"
        data = json.loads(text)
        data["verdicts"]["lefschetz_sum"] = "fail"
        assert workloads.check_survey(phi, nk.io.dump_report(data)), "verdict tamper missed"

    routes = workloads.generate(nk, workloads.WORKLOADS["routes-r2"], run.DEFAULT_SEED, 12)
    tampered = 0
    for inst in routes:
        text = workloads.run_route(nk, inst)
        assert workloads.check_route(inst, text) == [], text
        data = json.loads(text)
        if data["generators"]:
            data["generators"][0] = ""
        elif data["attracting_prefixes"]:
            data["attracting_prefixes"][0] = data["attracting_prefixes"][0][:-1]
        else:
            continue
        assert workloads.check_route(inst, nk.io.dump_report(data)), "route tamper missed"
        tampered += 1
    assert tampered, "no route instance had anything to tamper with"

    # The harness itself: a report changed after the check pass is a failure.
    r = run.Run(nk, "survey-r2", phis)
    r.first_pass(run.DEFAULT_SEED)
    assert r.failed == 0
    real = r.run_one
    r.run_one = lambda nk_, phi: real(nk_, phi).replace('"ind": ', '"ind": 1', 1)
    r.execute(0)
    assert r.failed == 1, r.problems
    print("ok  tampered reports are caught")


def check_refuses_without_program() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run_tiny("survey-r2", 0, cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and '"correct"' not in out, (code, out)
    print(f"ok  without the program the harness exits {code} and prints no result")


if __name__ == "__main__":
    check_declared_metrics()
    check_tampering_is_caught()
    check_refuses_without_program()
    check_printed_metrics()
    print("selftest passed")
