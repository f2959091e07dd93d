"""layerpool benchmark: one workload per process, result as JSON on the last line.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` first repeats the workload untraced for half of ``--seconds``,
then repeats exactly the same work with span recorders patched around
layerpool's entry points (see tracing.py), and reports the per-layer metrics
plus the tracing overhead. The traced pass's loss trace must equal the
untraced one bit for bit.

Earlier stdout lines carry the environment (machine, Python, numpy, BLAS,
nproc, thread variables), the operations attempted and failed per phase, and
a metric table; the same record, and for traced runs every span, is written
under ``.perfbench/runs/`` in the checkout. ``--workload all`` runs each
workload in a fresh process, so peak RSS and set-up time stay attributable.

End-to-end times are reported at nominal machine speed: each timed unit is
bracketed by a fixed reference task and scaled by how fast that task ran
(see session.py), because the speed of the shared 2-vCPU VM this was tuned
on drifts by up to a third between runs. index_build_s stays wall time.

The benchmark pins BLAS to one thread before numpy is imported; it leaves
the garbage collector on because users pay for it too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_encoder", "train_pooler", "serve")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every phase at a toy size (smoke test only)")
    return p.parse_args(argv)


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_workload(args) -> dict:
    import layerpool

    if Path(layerpool.__file__).resolve().parent != ROOT / "src" / "layerpool":
        raise SystemExit(f"layerpool imported from {layerpool.__file__}, not this checkout")

    import session as W
    from tracing import Tracer

    sizes = W.SIZES[args.size]
    plan = W.plans(sizes)[args.workload]
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = W.Ledger()
    tracer = Tracer() if args.trace else None
    try:
        setup_times = []
        for k in range(W.SETUP_REPEATS):
            if tracer is not None:
                tracer.install()
            inputs, seconds = W.timed(W.setup, args.seed, sizes, plan, str(workdir), k)
            setup_times.append(seconds)
            if tracer is not None:
                tracer.uninstall()

        if tracer is None:
            res = W.run_pass(args.workload, inputs, args.seed, sizes, args.seconds,
                             str(workdir), ledger)
            metrics = W.end_to_end(args.workload, res, setup_times, sizes,
                                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            samples = W.samples(res, setup_times)
        else:
            base = W.run_pass(args.workload, inputs, args.seed, sizes,
                              args.seconds / 2, str(workdir), ledger)
            with tracer:
                res = W.run_pass(args.workload, inputs, args.seed, sizes,
                                 args.seconds / 2, str(workdir), ledger,
                                 tracer=tracer, order=base.order)
                tracer.phase = "sts"
                W.layer_sweep_check(inputs, sizes, ledger)
                sweep = W.sweep_phase(res.index, inputs, sizes, tracer)
            for name, loop in base.loops.items():
                if isinstance(loop, W.TrainLoop):
                    ledger.record("trace", loop.trace == res.loops[name].trace,
                                  f"{name}: traced loss trace differs from untraced")
            overhead = res.seconds / base.seconds - 1.0
            metrics = W.per_layer(args.workload, tracer, res, sweep, overhead, sizes)
            samples = W.samples(res, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(ledger.attempted.values())
    failed = sum(ledger.failed.values())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": environment(),
        "operations": {phase: {"attempted": n, "failed": ledger.failed.get(phase, 0)}
                       for phase, n in ledger.attempted.items()},
        "failures": ledger.notes,
        "samples": samples,
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = ROOT / ".perfbench" / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.write_jsonl(out_dir / f"{stem}.spans.jsonl")
    print("# env " + json.dumps(record["environment"]))
    print("# operations " + json.dumps(record["operations"]))
    for note in ledger.notes:
        print("# FAILED " + note)
    return result


def print_table(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")


def run_all(args) -> dict:
    """Each workload in its own interpreter; metrics keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"== {workload}")
        print_table(result["metrics"])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    # before numpy loads: BLAS reads these once, when it starts its threads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "layerpool" / "__init__.py").is_file():
        print(f"no layerpool sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
        print_table(result["metrics"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
