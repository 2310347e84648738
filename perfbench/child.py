"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED T_SPAWN WORKDIR [--trace] [--setup-only]

T_SPAWN is the parent's CLOCK_MONOTONIC reading just before it started this
process, so setup_s covers interpreter start, the imports of knads, numpy
and scipy, input generation and the cold horizon and tortoise-map builds.
The last line of standard output is one JSON object describing the pass,
with the CLOCK_MONOTONIC readings t_ready and t_end that bound the timed
part, so the parent can match them with its host speed samples.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    workload, seed, t_spawn, workdir = argv[0], int(argv[1]), float(argv[2]), argv[3]
    traced = "--trace" in argv
    setup_only = "--setup-only" in argv

    import workloads  # imports knads, numpy and scipy

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer().install()
    inputs = workloads.make_inputs(workload, seed)
    workloads.setup(workload, inputs)
    t_ready = time.monotonic()
    out = {"setup_s": t_ready - t_spawn, "t_ready": t_ready}
    if not setup_only:
        os.makedirs(workdir, exist_ok=True)
        res = workloads.PASSES[workload](inputs, workdir)
        t_end = time.monotonic()
        out.update(wall_s=t_end - t_ready, t_end=t_end)
        out.update(results=res.results, ops=res.ops, digest=res.digest)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()
        from tracer import per_layer

        hits, misses = tracer.cache_counts()
        trace = tracer.to_json()
        out["per_layer"] = per_layer(trace, hits, misses)
        out["trace"] = trace
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
