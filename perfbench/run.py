"""knads benchmark: time to certified spectral answers, end to end and per
layer.

    python3 perfbench/run.py --workload {scan,radial,angular} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding src/knads).
Each pass runs in a fresh Python child, one child at a time (a closed loop
with one client), so no in-process cache carries over between passes, as
for a user of the knads CLI. Passes repeat the same seeded inputs until S
seconds have been measured, with at least MIN_PASSES of them; extra
set-up-only children bring the set-up sample count to SETUP_SAMPLES.

The children and a host speed sampler (sampler.py) are pinned to one CPU.
On a shared host the speed of a core moves by up to 1.8x from one ten
seconds to the next with other tenants' load, far more than a change worth
measuring. So every time the benchmark reports is scaled to a reference
host speed: the measured seconds times REF_KERNEL_S over the sampler's
reference-kernel time during the same interval. The raw seconds stay in
the record and in the traced metrics.

With --trace 0 the last line of standard output carries the end-to-end
metrics; with --trace 1 the per-layer metrics of traced passes, plus the
tracing overhead against an untraced pass in the same run. Every detail
(run conditions, per-pass values, host samples, spans) goes to
perfbench/out/.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

MIN_PASSES = 2
SETUP_SAMPLES = 3
RUN_LIMIT_S = 165  # every child is stopped by then, so a run ends within 180 s
SAMPLE_PERIOD_S = 0.05
# The sampler's kernel time that reported times are scaled to, about its
# median on a 2.1 GHz Intel Xeon (Sapphire Rapids) vCPU of a shared host, so
# scaled seconds read close to that host's wall seconds. It fixes the unit
# only; both sides of a comparison use it.
REF_KERNEL_S = 6.5e-4
TRIM = 0.1  # share of the slowest kernel samples dropped (sampler preempted)
WORKLOADS = ("scan", "radial", "angular")  # as in workloads.py, which imports knads
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class ChildFailed(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    env.update(PINNED)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def pinned(cpu):
    return lambda: os.sched_setaffinity(0, {cpu})


def run_child(root, workload, seed, workdir, deadline, cpu, traced=False, setup_only=False):
    """Start one child on the given CPU, wait for it, and return its parsed
    report. A child still running at the deadline (a CLOCK_MONOTONIC time)
    is killed."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed)]
    t_spawn = time.monotonic()
    cmd += [repr(t_spawn), workdir]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - t_spawn), check=False, preexec_fn=pinned(cpu),
    )
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with code {proc.returncode}")
    rep = json.loads(lines[-1])
    rep["t_spawn"] = t_spawn
    return rep


class HostSampler:
    """sampler.py running beside the children, on their CPU, for one run."""

    def __init__(self, path, cpu):
        self.path = path
        self._out = open(path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "sampler.py"), repr(SAMPLE_PERIOD_S)],
            stdin=subprocess.PIPE, stdout=self._out, preexec_fn=pinned(cpu),
        )
        # Let its own start-up finish before a child shares the CPU with it.
        t_limit = time.monotonic() + 30.0
        while (os.path.getsize(path) == 0 and self.proc.poll() is None
               and time.monotonic() < t_limit):
            time.sleep(0.01)

    def stop(self):
        """End the sampler, wait for it, and return its (time, kernel s) samples."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._out.close()
        with open(self.path) as fh:
            return [tuple(map(float, line.split())) for line in fh if line.strip()]


def kernel_time(samples, t0, t1):
    """Mean reference-kernel time over the samples taken in [t0, t1], without
    the slowest TRIM share, where the sampler itself was preempted."""
    ks = sorted(k for t, k in samples if t0 <= t <= t1)
    if not ks:
        raise ValueError(f"no host speed sample in [{t0:.3f}, {t1:.3f}]")
    return statistics.fmean(ks[:max(1, math.ceil(len(ks) * (1.0 - TRIM)))])


def scale_to_reference(reps, samples):
    """Add setup_ref_s and, for a pass, wall_ref_s: the child's seconds at
    the reference host speed. Returns the reports that could be scaled and
    one error line for each that could not."""
    kept, errors = [], []
    for rep in reps:
        try:
            k = kernel_time(samples, rep["t_spawn"], rep["t_ready"])
            rep.update(setup_kernel_s=k, setup_ref_s=rep["setup_s"] * REF_KERNEL_S / k)
            if "t_end" in rep:
                k = kernel_time(samples, rep["t_ready"], rep["t_end"])
                rep.update(kernel_s=k, wall_ref_s=rep["wall_s"] * REF_KERNEL_S / k)
        except ValueError as ex:
            errors.append(f"host sampler: {ex}")
            continue
        kept.append(rep)
    return kept, errors


def git_commit(root):
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git work tree)"


def conditions(root, seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "seed": seed,
        "blas_threads": PINNED,
    }


def measure(root, workload, seed, seconds, trace, workdir, cpu):
    """Run the passes of one benchmark run; returns (passes, extra, errors),
    where extra are the reports of the set-up-only children.

    In a traced run the first pass is untraced, for the tracing overhead,
    and the rest are traced; at least two are, so that their counters can
    be compared."""
    passes, extra, errors = [], [], []
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    while True:
        n = len(passes)
        traced = bool(trace) and n > 0
        try:
            rep = run_child(root, workload, seed, workdir, deadline, cpu, traced=traced)
        except (ChildFailed, subprocess.TimeoutExpired, ValueError) as ex:
            errors.append(f"pass {n}: {ex}")
            break
        rep["traced"] = traced
        passes.append(rep)
        enough = len(passes) >= (3 if trace else MIN_PASSES)
        mean = (time.monotonic() - t0) / len(passes)
        if enough and time.monotonic() - t0 + mean > seconds:
            break
    while len(passes) + len(extra) < SETUP_SAMPLES and not errors:
        try:
            extra.append(run_child(root, workload, seed, workdir, deadline, cpu, setup_only=True))
        except (ChildFailed, subprocess.TimeoutExpired, ValueError) as ex:
            errors.append(f"setup child: {ex}")
    return passes, extra, errors


def tally(passes, errors):
    """(attempted, failed, failure lines) over every operation of the run,
    including the determinism checks: each later pass must reproduce the
    first pass's output digest, and traced passes their work counters."""
    attempted, failed, lines = 0, 0, []
    for i, rep in enumerate(passes):
        for name, ok, reason in rep["ops"]:
            attempted += 1
            if not ok:
                failed += 1
                lines.append(f"pass {i}: {name}: {reason}")
    for i, rep in enumerate(passes[1:], 1):
        attempted += 1
        if rep["digest"] != passes[0]["digest"]:
            failed += 1
            lines.append(f"pass {i}: determinism: output digest differs from pass 0")
    traced = [r for r in passes if r["traced"]]
    for rep in traced[1:]:
        attempted += 1
        a, b = counts(traced[0]["per_layer"]), counts(rep["per_layer"])
        if a != b:
            failed += 1
            diff = sorted(k for k in a if a[k] != b.get(k))
            lines.append(f"determinism: traced counters differ: {diff}")
    attempted += len(errors)
    failed += len(errors)
    lines += errors
    return attempted, failed, lines


# Per-layer counters that must repeat exactly from one traced pass to the next.
EXACT_SUFFIXES = ("_calls", ".rhs_evals", ".steps", ".steps_rejected", ".points",
                  ".rhs_rows", ".dof", ".stalls", ".resolves", ".misses", ".hits",
                  "_builds")


def counts(per_layer):
    return {k: v for k, v in per_layer.items() if k.endswith(EXACT_SUFFIXES)}


def end_to_end(passes, setups, attempted, failed):
    timed = [r for r in passes if not r["traced"]]
    return {
        "wall_s": (statistics.median([r["wall_ref_s"] for r in timed]), "s"),
        "results_per_s": (statistics.median([r["results"] / r["wall_ref_s"] for r in timed]), "1/s"),
        "setup_s": (statistics.median([r["setup_ref_s"] for r in setups]), "s"),
        "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in timed]), "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
    }


def layer_metrics(passes, attempted, failed):
    traced = [r for r in passes if r["traced"]]
    untraced = [r for r in passes if not r["traced"]]
    exact = counts(traced[0]["per_layer"])
    out = {}
    for key in traced[0]["per_layer"]:
        vals = [r["per_layer"][key] for r in traced]
        out[key] = (exact[key] if key in exact else statistics.median(vals), unit_of(key))
    wall_t = statistics.median([r["wall_ref_s"] for r in traced])
    out["trace.wall_s"] = (wall_t, "s")
    out["trace.overhead_s"] = (wall_t - statistics.median([r["wall_ref_s"] for r in untraced]), "s")
    out["host.raw_wall_s"] = (statistics.median([r["wall_s"] for r in untraced]), "s")
    out["host.kernel_us"] = (1e6 * statistics.median([r["kernel_s"] for r in passes]), "us")
    out["fail_ratio"] = (failed / attempted, "ratio")
    return out


def unit_of(key):
    if key.endswith("_s"):
        return "s"
    if key.endswith("rows_per_eval"):
        return "rows"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "knads", "__init__.py")):
        print("perfbench: run from the root of a knads checkout (src/knads not found)",
              file=sys.stderr)
        return 2
    outdir = os.path.join(HERE, "out")
    workdir = os.path.join(outdir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)

    cond = conditions(root, args.seed)
    cpu = max(os.sched_getaffinity(0))
    cond["cpu"] = cpu
    sampler = HostSampler(os.path.join(workdir, "host_samples.txt"), cpu)
    try:
        passes, extra, errors = measure(root, args.workload, args.seed, args.seconds,
                                        args.trace, workdir, cpu)
    finally:
        samples = sampler.stop()
    shutil.rmtree(workdir, ignore_errors=True)
    passes, lost = scale_to_reference(passes, samples)
    extra, lost_extra = scale_to_reference(extra, samples)
    setups = passes + extra
    errors += lost + lost_extra
    cond["loadavg_end"] = os.getloadavg()
    attempted, failed, failures = tally(passes, errors)
    if args.trace and any(r["traced"] for r in passes) and any(not r["traced"] for r in passes):
        metrics = layer_metrics(passes, attempted, failed)
    elif not args.trace and passes:
        metrics = end_to_end(passes, setups, attempted, failed)
    else:
        metrics = {}
        failed = max(failed, 1)

    for line in failures:
        print(f"FAILED {line}")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "conditions": cond,
        "passes": passes,
        "setup_only": extra,
        "host_samples": samples,
        "failures": failures,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(outdir, name), "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"conditions": cond, "passes": len(passes),
                      "setup_samples": len(setups)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
