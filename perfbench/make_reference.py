"""Regenerate ``reference/<workload>.json``: the input pool, its answers and costs.

Run from the repository root, one workload per process:

    python3 perfbench/make_reference.py sweep_pcf

Every pool entry runs once, in pool order, in this process, exactly as a
benchmark operation does.  Its answers (or the name of the typed error a
column raised) become the reference the benchmark checks against, and its
wall time becomes the cost that ``workloads.draw_round`` stratifies on.
Regenerating moves the reference to the current code; do it only at the
commit whose answers are the reference.
"""
import json
import os
import platform
import subprocess
import sys
import time


def main(argv):
    workload = argv[0]
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy
    import scipy
    import sfwmsim
    import sfwmsim.cli  # noqa: F401  (the contour operation calls it)
    import workloads as wl

    work = os.path.join(root, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    pool = wl.draw_pool(workload)
    run = wl.make_op(workload, sfwmsim, work, "reference-contour")
    # a first operation pays one-off warm-up; spend it on an input outside
    # the pool so every entry's cost is a warm one
    run(wl.build_input(workload, sfwmsim, wl.WARM_UP[workload]))
    entries = []
    for i, inp in enumerate(pool):
        # CPU time of this process: unlike wall time it does not grow when
        # other processes share the cores while the reference is made
        built = wl.build_input(workload, sfwmsim, inp)
        t0 = time.process_time()
        answers = run(built)
        cost = time.process_time() - t0
        entries.append({"id": i, "input": inp, "cost_s": cost, "answers": answers})
        print(f"{workload} {i}: {cost:.2f} s", file=sys.stderr, flush=True)

    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, check=False).stdout.strip()
    doc = {"workload": workload, "pool_seed": wl.POOL_SEED,
           "commit": commit or "unknown",
           "versions": {"python": platform.python_version(),
                        "numpy": numpy.__version__, "scipy": scipy.__version__,
                        "backend": sfwmsim.active_backend()},
           "entries": entries}
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    with open(wl.reference_path(workload), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
