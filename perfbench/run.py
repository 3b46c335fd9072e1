"""The repository benchmark: one closed-loop workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload fourier-serve --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced and then traced on the same seed, and prints the
per-layer metrics, each layer's self time and the tracing overhead.
``--steadiness N`` runs the workload N times on seeds ``seed..seed+N-1``
in fresh processes and prints the median and interquartile spread of each
end-to-end metric against its bound.  Metric names, units and bounds come
from ``BENCHMARK.json``.

Human-readable lines start with ``#``; the last line of standard output is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def _import_program():
    """Import ``repro`` from this checkout's ``src`` (never from elsewhere)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro package under {src}; run from the repository root")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    return repro


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(ROOT, ".git", name)
    if os.path.isfile(loose):
        with open(loose) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: str) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mount = parts[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def stamp(args, workdir: str, gen_s: float) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "tmp_fs": _filesystem(os.path.realpath(workdir)),
        "git_commit": _git_commit(),
        "generator_s": round(gen_s, 3),
    }


def _workloads():
    import workloads as w

    return {
        "fourier-serve": (w.serve_inputs, w.fourier_serve),
        "colhist-disk": (w.disk_inputs, w.colhist_disk),
        "fourier-ingest": (w.ingest_inputs, w.fourier_ingest),
    }


def _print_table(title: str, values: dict, units: dict) -> None:
    print(f"# {title}")
    for name, value in values.items():
        print(f"#   {name:<44} {value:>14.6g} {units.get(name, '')}")


def run_once(args, spec: dict) -> int:
    _import_program()
    import tracing

    makers = _workloads()
    if args.workload not in makers:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(makers)}")
    make_inputs, run = makers[args.workload]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    scratch = os.path.join(ROOT, ".bench_tmp", f"run-{os.getpid()}")
    os.makedirs(scratch)
    try:
        t = time.perf_counter()
        inputs = make_inputs(args.seed)
        gen_s = time.perf_counter() - t
        plain_dir = os.path.join(scratch, "plain")
        os.makedirs(plain_dir)
        plain = run(inputs, args.seconds, plain_dir)
        print("# stamp " + json.dumps({**stamp(args, scratch, gen_s), **plain.info}))
        _print_table("end-to-end (untraced)", plain.metrics, units)
        attempted, failed = plain.attempted, plain.failed
        print(f"#   {'failed_op_frac':<44} {failed / max(attempted, 1):>14.6g} frac")
        for key in ("write_ops_s", "write_p50_ms", "write_p95_ms"):
            if key in plain.info:
                print(f"#   {key:<44} {plain.info[key]:>14.6g}")
        names = [m["name"] for m in spec["end_to_end"]]
        if args.trace:
            traced_dir = os.path.join(scratch, "traced")
            spill = os.path.join(scratch, "spill")
            os.makedirs(traced_dir)
            os.makedirs(spill)
            tracer = tracing.Tracer(spill)
            tracing.install(tracer)
            try:
                traced = run(inputs, args.seconds, traced_dir, tracer)
            finally:
                tracer.uninstall()
            attempted += traced.attempted
            failed += traced.failed
            layer, self_s = tracing.summarise(
                tracer.collect(), {**traced.ctx, "owner": tracer.owner_pid}
            )
            overhead = {k: traced.metrics[k] - plain.metrics[k] for k in plain.metrics}
            _print_table("tracing overhead (traced - untraced, same seed)", overhead, units)
            busy = traced.ctx["busy_s"]
            print(
                f"# self time by layer inside the client's calls: traced call time "
                f"{busy:.3f} s, untraced {plain.ctx['busy_s']:.3f} s"
            )
            for name, sec in sorted(self_s.items(), key=lambda kv: -kv[1]):
                print(f"#   {name:<44} {sec:>10.3f} s  {sec / busy:>7.3f} of call time")
                layer[f"{name}.self_frac"] = sec / busy
            layer["tracing.overhead_frac"] = 1.0 - traced.metrics["ops_s"] / plain.metrics["ops_s"]
            layer["client.failed_op_frac"] = failed / max(attempted, 1)
            for key in ("write_ops_s", "write_p50_ms", "write_p95_ms"):
                layer[f"client.{key}"] = plain.info.get(key, 0.0)
            _print_table("per-layer (traced)", layer, units)
            names = [m["name"] for m in spec["per_layer"]]
            values = {n: layer.get(n, 0.0) for n in names}
        else:
            values = {n: plain.metrics[n] for n in names}
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
        }
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass
    return 0


def steadiness(args, spec: dict) -> int:
    """Run the workload ``args.steadiness`` times on successive seeds and
    report each end-to-end metric's median and interquartile spread."""
    _import_program()
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    failed = 0
    for i in range(args.steadiness):
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed + i), "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            sys.exit(f"perfbench: run with seed {args.seed + i} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"# seed {args.seed + i}: " + " ".join(
            f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()
        ), flush=True)
    print(f"# {args.workload}: {args.steadiness} runs, {failed} failed operations")
    print(
        f"# {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'iqr/med':>8} {'bound':>6}  verdict"
    )
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if m["name"] == "setup_s":
            verdict = "not bounded (medians compared)"
        else:
            verdict = "ok" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "TOO WIDE"
            )
        print(
            f"# {m['name']:<28} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
            f"{spread:>8.4f} {m['bound']:>6}  {verdict}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    if not os.path.isfile(SPEC_PATH):
        sys.exit(f"perfbench: {SPEC_PATH} not found; run from the repository root")
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.steadiness:
        return steadiness(args, spec)
    return run_once(args, spec)


if __name__ == "__main__":
    sys.exit(main())
