"""The benchmark's own smoke test: every workload path on a ~90-project market.

    python3 perfbench/smoke_test.py          # or: python3 -m pytest perfbench/smoke_test.py

Runs run.py with ``--tiny`` for each workload, untraced and traced, and
checks that each run passes its output checks and emits exactly the
metrics BENCHMARK.json declares for its mode, with the declared units and
names made of ``[A-Za-z0-9_.-]``.  Also checks that the tracer restores
every function it patched, and that the benchmark refuses to run from a
directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    doc = declared()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in doc["workloads"])
    for section, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in doc[section]} == table


def test_every_workload_runs_and_emits_declared_metrics():
    doc = declared()
    for workload in (w["name"] for w in doc["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stdout[-2000:], proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
            units = {m["name"]: m["unit"] for m in doc[section]}
            assert set(result["metrics"]) == set(units), (workload, trace)
            for name, metric in result["metrics"].items():
                assert NAME.fullmatch(name), name
                assert metric["unit"] == units[name], name
                assert isinstance(metric["value"], (int, float)), name


def test_tracer_restores_every_patch():
    from tracer import Tracer

    tracer = Tracer("smoke")
    patched = [(owner, attr) for owner, attr, *_ in tracer._patches()]
    before = [vars(owner)[attr] for owner, attr in patched]
    with tracer.installed():
        assert all(vars(owner)[attr] is not b for (owner, attr), b in zip(patched, before))
    assert all(vars(owner)[attr] is b for (owner, attr), b in zip(patched, before))


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(declared()["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
