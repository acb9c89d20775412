"""Benchmark entry point: one workload, in this one process.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ./src and the
metric names and units are read from ./BENCHMARK.json.  With --trace 0 the
last stdout line carries every end_to_end metric, with --trace 1 every
per_layer metric.  --smoke shrinks the workload to a few operations, and
--record-reference rewrites the fixed-seed reference values from the code
as it stands.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are capped before numpy loads: the machine is small and shared.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("desk-train", "long-train", "dev-decode")
WORK_DIR = ".bench_work"


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def environment(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke}


def record_reference(path: str) -> int:
    import workloads
    refs = {"full": {}, "smoke": {}}
    root = tempfile.mkdtemp(prefix="reference-", dir=WORK_DIR)
    try:
        for mode, table in refs.items():
            for w in WORKLOADS:
                table[w] = workloads.reference_probe(
                    w, workloads.shape_of(w, mode == "smoke"),
                    os.path.join(root, mode, w))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "pmu", "__init__.py")):
        return _fail("no ./src/pmu here: run from the root of a pmu checkout")
    if not os.path.isfile("BENCHMARK.json"):
        return _fail("no ./BENCHMARK.json here")
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.record_reference:
        return record_reference(args.reference)
    if args.workload is None:
        return _fail("--workload is required")

    import workloads
    from hostclock import HostClock
    from spans import Tracer
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    with open(args.reference, "r", encoding="utf-8") as fh:
        reference = json.load(fh)

    tracer = Tracer(HostClock())
    root = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR)
    try:
        out = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke, root,
            reference["smoke" if args.smoke else "full"][args.workload], tracer)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    ledger = out.ledger
    computed = dict(out.metrics)
    computed["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    computed["failed_share"] = ledger.failed / max(ledger.attempted, 1)
    missing = [m["name"] for m in declared if m["name"] not in computed]
    for name in missing:
        print(f"error: metric {name} was not measured", file=sys.stderr)
    for msg in ledger.failures:
        print(f"check failed: {msg}", file=sys.stderr)

    env = environment(args)
    env["host_speed"] = tracer.clock.speed()
    report = {"workload": args.workload, "trace": args.trace, "env": env,
              "samples": out.samples, "attempted": ledger.attempted,
              "failed": ledger.failed, "failed_share": computed["failed_share"],
              "metrics": computed}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    with open(os.path.join(WORK_DIR, "results", f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    if args.trace:
        os.makedirs(os.path.join(WORK_DIR, "traces"), exist_ok=True)
        tracer.write(os.path.join(WORK_DIR, "traces", f"{tag}.jsonl"), report)

    print(json.dumps({"env": env, "samples": out.samples}, sort_keys=True))
    for m in declared:
        if m["name"] in computed:
            print(f"{m['name']:<44} {computed[m['name']]:>16.6g} {m['unit']}")
    print(f"{'failed_share':<44} {computed['failed_share']:>16.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    print(json.dumps({
        "correct": ledger.failed == 0 and not missing,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in computed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
