#!/usr/bin/env python3
"""The sfwmsim benchmark: one command for every end-to-end metric and the answer check.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_pcf --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``sweep_pcf``,
``sweep_taylor`` and ``contour_cli``.  All load comes from one worker
process per run, a closed loop with one operation in flight and no threads
of its own; BLAS is held to one thread.

``--trace 0`` spawns ``SETUP_PROBES`` set-up-only workers and then the
measured worker, and reports

* ``setup_s``: spawn of a worker to its first operation being issued
  (interpreter, ``import sfwmsim``, input generation), median over all of
  this run's workers;
* ``op_s.p50``: median wall time of one operation;
* ``ops_per_s``: operations completed / wall time of the loop;
* ``peak_rss_mb``: ``ru_maxrss`` of the measured worker.

``fail_ratio`` (operations that raised or had an answer outside tolerance,
over those attempted) is printed beside them and reported as ``failed`` /
``attempted``.

``--trace 1`` runs the first half of a round untraced and then the same
operations traced, in a fresh worker each; it reports the per-layer metrics of ``tracer.py`` plus
``trace.overhead`` (traced / untraced ``op_s.p50`` - 1) and requires the
traced answers to be bit-identical to the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

SETUP_PROBES = 4
DEADLINE_S = 170.0
WORK_DIR = ".perfbench_work"


def _units(kind):
    """Metric units of ``kind`` ("end_to_end" or "per_layer") from BENCHMARK.json."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class WorkerError(RuntimeError):
    pass


def _spawn(args, work, deadline, *extra):
    """Run one worker to completion; returns (result, seconds to first op)."""
    result_path = os.path.join(work, f"result-{args.workload}-{args.seed}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--work", work,
           "--result", result_path, *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    t_spawn = time.monotonic_ns()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=remaining, check=False)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise WorkerError(f"worker exited with {proc.returncode}:\n"
                          + proc.stderr[-3000:])
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return result, (result["t_ready_ns"] - t_spawn) * 1e-9


def _check(workload, ops, entries):
    """Per-op list of problems (empty when the op is correct)."""
    problems = []
    for op in ops:
        if op["raised"]:
            problems.append([f"raised {op['raised']}"])
        else:
            problems.append(wl.check_answers(workload, op["answers"],
                                             entries[op["entry"]]["answers"]))
    return problems


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _run_record(args, backend):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": _git_commit(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "backend": backend}


def _print_table(title, rows):
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<34} {value:>14.6g} {unit:<9} {note}")


def _measure(args, work, deadline):
    """--trace 0: set-up probes plus one measured worker."""
    setups = [_spawn(args, work, deadline, "--setup-only")[1]
              for _ in range(SETUP_PROBES)]
    result, setup = _spawn(args, work, deadline)
    setups.append(setup)
    ops = result["ops"]
    times = [op["s"] for op in ops]
    metrics = {"setup_s": statistics.median(setups),
               "op_s.p50": statistics.median(times),
               "ops_per_s": len(ops) / result["wall_s"],
               "peak_rss_mb": result["rss_mb"]}
    notes = {"setup_s": f"median of {len(setups)} worker set-ups, "
                        f"{min(setups):.3f}-{max(setups):.3f} s",
             "op_s.p50": f"{len(ops)} ops in {result['rounds']} round(s)",
             "ops_per_s": f"over {result['wall_s']:.3f} s",
             "peak_rss_mb": "measured worker"}
    return result, metrics, notes, True


def _traced(args, work, deadline):
    """--trace 1: the first half-round untraced, then the same ops traced."""
    n_ops = str(-(-wl.POOL[args.workload][1] // 2))
    base, _ = _spawn(args, work, deadline, "--ops", n_ops)
    traced, _ = _spawn(args, work, deadline, "--ops", n_ops, "--trace", "1")
    identical = ([(op["entry"], op["answers"], op["raised"]) for op in base["ops"]]
                 == [(op["entry"], op["answers"], op["raised"]) for op in traced["ops"]])
    p50 = statistics.median(op["s"] for op in base["ops"])
    p50_traced = statistics.median(op["s"] for op in traced["ops"])
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = p50_traced / p50 - 1.0
    notes = {"trace.overhead": f"traced p50 {p50_traced:.4f} s / untraced {p50:.4f} s"}
    print(f"traced answers bit-identical to untraced: {identical}; "
          f"wrappers restored: {traced['restored']}")
    _print_breakdown(traced["breakdown"])
    return traced, metrics, notes, identical and traced["restored"]


def _print_breakdown(bd):
    total, shares = bd["all"]
    print(f"self-time breakdown of the traced operations ({total:.3f} s):")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<24} {100 * share:6.2f} %")
    counts = bd["pulsed_counts"]
    if counts["calls"]:
        total, shares = bd["per_pulsed_eta"]
        print(f"per pulsed eta ({counts['calls']} calls, {total / counts['calls']:.3f} s each): "
              f"{counts['integrals']:.0f} integrals, "
              f"{counts['integrand_calls']:.0f} integrand calls, "
              f"{counts['kernel_points']:.0f} kernel points; self time "
              + ", ".join(f"{k} {100 * v:.1f} %"
                          for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))


def main(argv=None):
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sfwmsim", "__init__.py")):
        print("error: run from the root of an sfwmsim checkout "
              "(src/sfwmsim is missing)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(root, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    entries = wl.load_reference(args.workload)["entries"]
    try:
        result, metrics, notes, ok = (_traced if args.trace else _measure)(
            args, work, deadline)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = result["ops"]
    problems = _check(args.workload, ops, entries)
    failed = sum(1 for p in problems if p)
    exact = sum(1 for op in ops if not op["raised"]
                and op["answers"] == entries[op["entry"]]["answers"])
    record = _run_record(args, result["record"]["backend"])
    print("run: " + json.dumps(record, sort_keys=True))
    units = _units("per_layer" if args.trace else "end_to_end")
    _print_table(f"{args.workload} seed {args.seed}:",
                 [(k, v, units[k], notes.get(k, "")) for k, v in metrics.items()])
    print(f"  {'fail_ratio':<34} {failed / len(ops):>14.6g} {'ratio':<9} "
          f"{failed}/{len(ops)} ops failed")
    print(f"answer check: {len(ops) - failed}/{len(ops)} ops within tolerance, "
          f"{exact} bit-identical to the reference")
    for op, p in zip(ops, problems):
        if p:
            print(f"  entry {op['entry']}: {'; '.join(p)}")
    print(json.dumps({
        "correct": failed == 0 and ok,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
