"""gme benchmark: market load -> contexts -> training -> scoring, on fixed workloads.

    python3 perfbench/run.py --workload ablate-prior --seed 1 --seconds 15 --trace 0

Generates the workload's market from the seed with ``gme.synth`` and writes
it to JSONL (not timed), then measures the public API in a fresh,
single-threaded process (``measure.py``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same work once untraced and
once traced and prints the per-layer metrics.  Every run checks its
outputs: finite, well-shaped predictions, identical predictions across
passes and across runs of one seed, truths that match a direct
computation from the generated events, and every project scored once.
The last line of stdout is one JSON object; the exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
DEADLINE_S = 170.0
TRUTH_TOLERANCE = 1e-9

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from workloads import (AMOUNT_NOISE, END_TO_END, EXACT, PER_LAYER,  # noqa: E402
                       TINY_MARKET, WORKLOADS)


def import_gme():
    """Import gme from this checkout's src/, and only from there."""
    try:
        import gme
        from gme import synth
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import gme from {ROOT / 'src'}: {exc}")
    where = Path(gme.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"perfbench: gme was imported from {where}, not from {ROOT / 'src'}")
    return synth


def blas_threads():
    """Thread count OpenBLAS reports, when its library can be found."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(),
        "loadavg_start": os.getloadavg(),
    }


def source_digest() -> str:
    """Digest of the code that produces the outputs: gme and this benchmark."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "gme").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def write_market(synth, workload, seed: int, tiny: bool, out: Path):
    """Generate, perturb and write the market. Returns (generate s, oracle truths)."""
    config = synth.SynthConfig(**dict(workload.market, **(TINY_MARKET if tiny else {})))
    started = time.perf_counter()
    market, _ = synth.generate_market(config)
    generate_s = time.perf_counter() - started

    from gme import data as gd
    gd.save_projects(out / "projects.jsonl", market.projects)
    rng = np.random.default_rng(seed)
    tau_s = workload.train["tau"] * gd.HOUR
    truths = {}
    with open(out / "investments.jsonl", "w", encoding="utf-8") as fh:
        for p in market.projects:
            log = market.log(p.id)
            amounts = log.amounts * rng.lognormal(-AMOUNT_NOISE ** 2 / 2, AMOUNT_NOISE, len(log))
            pid = json.dumps(p.id)
            fh.writelines(f'{{"project_id":{pid},"timestamp":{int(t)},"amount":{float(a)!r}}}\n'
                          for t, a in zip(log.times, amounts))
            early = (log.times >= p.published_time) & (log.times < p.published_time + tau_s)
            truths[p.id] = math.log2(1.0 + float(np.sum(amounts[early])) / p.goal)
    return generate_s, truths


def measure(args, inputs: Path, tag: str, deadline: float, extra=()) -> dict:
    out = inputs / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--inputs", str(inputs), "--out", str(out), "--seconds", str(args.seconds),
           *(["--tiny"] if args.tiny else []), *extra]
    try:
        proc = subprocess.run(cmd, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {tag} measurement ran past the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {tag} measurement exited with {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def output_checks(doc: dict, oracle: dict) -> dict:
    """Name -> passed, for one measurement's outputs."""
    everyone = sorted(oracle)
    mae = doc["test_mae"]
    return {
        "no_failed_ops": doc["ops"]["failed"] == 0,
        "passes_identical": doc["passes_identical"],
        "contexts_identical": doc["contexts_identical"],
        "test_mae_finite_and_exact": math.isfinite(mae)
        and abs(mae - doc["test_mae_recomputed"]) <= 1e-12,
        "every_project_scored_once": all(sorted(ids) == everyone for ids in doc["scored_ids"]),
        "truths_match_events": sorted(doc["truths"]) == everyone and all(
            abs(t - oracle[pid]) <= TRUTH_TOLERANCE for pid, t in doc["truths"].items()),
    }


def same_seed_check(key: str, record: dict) -> bool:
    """Compare with an earlier run of this code and seed in this checkout, then store."""
    path = OUT / "fingerprints.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    earlier = known.get(key, {})
    same = all(earlier[k] == v for k, v in record.items() if k in earlier)
    if same:
        known[key] = {**earlier, **record}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run every workload path on a ~90-project market (smoke test)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    synth = import_gme()
    workload = WORKLOADS[args.workload]
    env = environment()
    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns()}"
    OUT.mkdir(exist_ok=True)
    inputs = OUT / f"work-{os.getpid()}"
    inputs.mkdir()
    try:
        generate_s, oracle = write_market(synth, workload, args.seed, args.tiny, inputs)
        plain = measure(args, inputs, "untraced", deadline, ["--single"] if args.trace else [])
        checks = output_checks(plain, oracle)
        record = dict(plain["fingerprint"])
        traced = None
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            traced = measure(args, inputs, "traced", deadline,
                             ["--single", "--trace-out", str(spans), "--run-id", run_id])
            checks.update({f"traced_{k}": v for k, v in output_checks(traced, oracle).items()})
            checks["traced_matches_untraced"] = traced["fingerprint"] == plain["fingerprint"]
            record.update({name: traced["layers"][name] for name in EXACT})
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    key = f"{source_digest()[:16]}/{args.workload}/seed{args.seed}{'/tiny' if args.tiny else ''}"
    checks["same_seed_reproducible"] = same_seed_check(key, record)

    if args.trace:
        values = dict(traced["layers"], **{
            "synth.generate_s": generate_s,
            "trace.overhead_s": traced["metrics"]["e2e_s"] - plain["metrics"]["e2e_s"],
        })
        declared = PER_LAYER
    else:
        values, declared = plain["metrics"], END_TO_END
    ops = plain["ops"]
    if traced:
        ops = {k: ops[k] + traced["ops"][k] for k in ops}
    env["loadavg_end"] = os.getloadavg()
    env["loaded"] = max(env["loadavg_start"][0], env["loadavg_end"][0]) > env["nproc"]
    correct = all(checks.values())

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} run_id={run_id}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in values.items():
        print(f"metric {name} {value:.6g} {declared[name][0]}")
    print("samples " + " ".join(f"{k}={v}" for k, v in plain["samples"].items()))
    print("host_gate " + " ".join(f"{k}={v:.6g}" for k, v in plain["gate"].items())
          + " (time the measured code was held while the host ran slow)")
    print(f"train_sets_per_s {plain['train_sets_per_s']:.6g} 1/s "
          f"({plain['samples']['train_steps']} steps over every ablation trained)")
    print(f"fail_ratio {ops['failed'] / ops['attempted']:.6g} "
          f"(failed {ops['failed']} of {ops['attempted']} ops: training steps + scored sets)")
    print(f"fingerprint pred_sha256={record['pred_sha256']} "
          f"context_sha256={record['context_sha256']} test_mae={plain['test_mae']!r} log2")
    for name, ok in checks.items():
        print(f"check {name} {'ok' if ok else 'FAILED'}")
    if env["loaded"]:
        print(f"warning: load average exceeded nproc={env['nproc']}; timings are contended")

    result = {"correct": correct, "attempted": ops["attempted"], "failed": ops["failed"],
              "metrics": {name: {"value": values[name], "unit": declared[name][0]}
                          for name in declared}}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "run_id": run_id, "env": env, "samples": plain["samples"],
              "fingerprint": record, "checks": checks, "gate": plain["gate"], "raw": plain["raw"],
              **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
