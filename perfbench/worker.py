"""One measured benchmark process (spawned by ``run.py``, one per run).

Imports sfwmsim from ``src/`` of the working directory, builds the round's
inputs, then runs whole rounds of operations in a closed loop with one
operation in flight.  A further round starts only if it is expected to end
within ``--seconds`` (at least one round always runs).  ``--ops N`` runs
exactly the first N operations of the seed's sequence instead, so a traced
pass can repeat an untraced one.

Writes one JSON result to ``--result``: the monotonic time at which the
first operation was issued, each operation's time and answers, the peak
RSS and, with ``--trace 1``, the per-layer metrics of the spans.
"""
import argparse
import json
import os
import resource
import sys
import time

OVERRUN = 1.3


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--ops", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import sfwmsim
    import sfwmsim.cli  # noqa: F401  (the contour operation calls it)
    import tracer
    import workloads as wl

    ref = wl.load_reference(args.workload)
    entries = ref["entries"]
    costs = [e["cost_s"] for e in entries]
    n_strata = wl.POOL[args.workload][1]

    run = wl.make_op(args.workload, sfwmsim, args.work, f"contour-{args.seed}")

    def build(i):
        return wl.build_input(args.workload, sfwmsim, entries[i]["input"])

    def round_inputs(r):
        return [(i, build(i)) for i in wl.draw_round(costs, n_strata, args.seed, r)]

    batch = round_inputs(0)
    recorder = None
    if args.trace:
        recorder = tracer.Recorder()
        recorder.install()
    t_ready_ns = time.monotonic_ns()
    result = {"t_ready_ns": t_ready_ns}
    if not args.setup_only:
        result.update(_loop(args, batch, round_inputs, run, recorder))
        result["record"] = {"backend": sfwmsim.active_backend()}
    if recorder is not None:
        result["restored"] = recorder.restore()
        n_ops = len(result.get("ops", ()))
        result["layers"] = tracer.layer_metrics(recorder.spans, n_ops)
        result["breakdown"] = {
            "all": tracer.breakdown(recorder.spans),
            "per_pulsed_eta": tracer.breakdown(recorder.spans, "efficiency.pulsed"),
            "pulsed_counts": tracer.counts_under(recorder.spans, "efficiency.pulsed"),
        }
        recorder.dump(os.path.join(
            args.work, f"spans-{args.workload}-{args.seed}.jsonl.gz"))
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _loop(args, batch, round_inputs, run, recorder):
    ops = []
    t_first = time.perf_counter()
    r = 0
    while True:
        t_round = time.perf_counter()
        for entry, inp in batch:
            if args.ops and len(ops) == args.ops:
                break
            # a round is cut short only when the machine is far slower than
            # usual, so that a run still ends in bounded time
            if not args.ops and ops and \
                    time.perf_counter() - t_first > OVERRUN * args.seconds:
                break
            t0 = time.perf_counter()
            answers, raised = None, None
            try:
                if recorder is None:
                    answers = run(inp)
                else:
                    answers = recorder.run_op(len(ops), run, inp)
            except Exception as exc:     # an operation failure is a result
                raised = f"{type(exc).__name__}: {exc}"
            ops.append({"entry": entry, "round": r,
                        "s": time.perf_counter() - t0,
                        "answers": answers, "raised": raised})
        r += 1
        now = time.perf_counter()
        if args.ops:
            if len(ops) == args.ops:
                break
        elif (now - t_first) + (now - t_round) > args.seconds:
            break
        batch = round_inputs(r)
    return {"ops": ops, "rounds": r, "wall_s": time.perf_counter() - t_first}


if __name__ == "__main__":
    sys.exit(main())
