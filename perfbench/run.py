"""Benchmark of the curvebound CLI workflows, run from the root of a checkout.

    python3 perfbench/run.py --workload {doubling,contour,audit} \\
        --seed N --seconds S --trace {0,1}

One process runs one workload as a closed loop with a single caller: each
command is ``curvebound.cli.main(argv)`` in-process and starts when the
previous one returns. The run

1. imports curvebound from ``src/`` and writes the workload's inputs,
   several times, and reports the median as ``setup_s``;
2. runs one untimed warm-up pass;
3. runs timed passes until ``--seconds`` have gone by and reports, as
   ``wall_s``, the time of one pass: the sum over commands of each
   command's median time, which a slow moment on a shared machine moves
   less than it moves a single pass;
4. with ``--trace 1``, runs the set-up and one more pass with every
   curvebound function wrapped (see ``spans.py``), writes the spans to
   ``.perfbench/spans-<workload>-seed<N>.json`` and reports the per-layer
   figures instead of the end-to-end ones;
5. checks the outputs outside the timed window: exit codes, the workload's
   own checks against ``oracles.py``, and a sha256 digest of each command's
   stdout and files, which must not differ between passes.

The last line of stdout is the JSON result; the metric names and units are
the ones in ``BENCHMARK.json``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import curvebound.cli; "
                "print(time.perf_counter() - t)")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "CURVEBOUND_THREADS")


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


# -- set-up ----------------------------------------------------------------------


def import_package(src):
    start = time.perf_counter()
    sys.path.insert(0, src)
    import curvebound.cli
    elapsed = time.perf_counter() - start
    if not os.path.abspath(curvebound.__file__).startswith(src + os.sep):
        fail(f"imported curvebound from {curvebound.__file__}, not from {src}")
    return curvebound, elapsed


def import_time_in_child(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def reset_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def machine_record(cb):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "curvebound": cb.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "machine": platform.machine(),
    }


# -- passes --------------------------------------------------------------------


def invoke(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def digest(stdout, outputs):
    h = hashlib.sha256(stdout.encode())
    for root in outputs:
        files = [root]
        if os.path.isdir(root):
            files = sorted(os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs)
        for path in files:
            h.update(path.encode() + b"\0")
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def run_pass(cb, commands, tracer=None):
    """Run every command once; returns (wall, per-command records)."""
    reset_dir("out")
    records = []
    start = time.perf_counter()
    for cmd in commands:
        if tracer is not None:
            tracer.command = cmd.id
        c0 = time.perf_counter()
        rc, stdout, stderr = invoke(cb.cli, cmd.argv)
        records.append({"cmd": cmd, "rc": rc, "stdout": stdout, "stderr": stderr,
                        "wall": time.perf_counter() - c0})
    wall = time.perf_counter() - start
    for rec in records:
        rec["digest"] = digest(rec["stdout"], rec["cmd"].outputs)
    return wall, records


# -- traced pass -------------------------------------------------------------------


def traced_pass(cb, workload, seed, commands):
    """Set up and run one pass with the tracer installed.

    Returns the tracer, the pass wall time, its records, and the wall time of
    each traced command (the set-up counts as the command ``setup``).
    """
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.command = "setup"
        start = time.perf_counter()
        workload.make_inputs(cb, seed)
        setup_wall = time.perf_counter() - start
        wall, records = run_pass(cb, commands, tracer)
    finally:
        tracer.uninstall()
    walls = {rec["cmd"].id: rec["wall"] for rec in records}
    walls["setup"] = setup_wall
    return tracer, wall, records, walls


# -- main ------------------------------------------------------------------------


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    if args.seed < 0:
        fail("--seed must be non-negative")
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "curvebound", "cli.py")):
        fail(f"no curvebound sources under {src}; run from the root of a checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]

    import_samples = [import_time_in_child(src) for _ in range(SETUP_REPEATS - 1)]
    cb, elapsed = import_package(src)
    import_samples.append(elapsed)

    out_root = os.path.join(root, ".perfbench")
    work = os.path.join(out_root, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    reset_dir(work)
    os.chdir(work)
    try:
        result = run(cb, workload, args, import_samples, spec, out_root)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


def run(cb, workload, args, import_samples, spec, out_root):
    machine = machine_record(cb)
    print("machine: " + json.dumps(machine, sort_keys=True))

    gen_samples = []
    for _ in range(SETUP_REPEATS):
        reset_dir("in")
        start = time.perf_counter()
        info = workload.make_inputs(cb, args.seed)
        gen_samples.append(time.perf_counter() - start)
    setup_s = statistics.median(import_samples) + statistics.median(gen_samples)
    print(f"setup: import {import_samples} s, inputs {gen_samples} s")
    commands = workload.commands(args.seed, info)

    passes = [("warm-up", *run_pass(cb, commands))]
    timed = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < args.seconds:
        wall, records = run_pass(cb, commands)
        timed.append(records)
        passes.append((f"timed-{len(timed)}", wall, records))
    wall_s = sum(statistics.median(recs[i]["wall"] for recs in timed)
                 for i in range(len(commands)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        tracer, traced_wall, records, walls = traced_pass(cb, workload, args.seed, commands)
        passes.append(("traced", traced_wall, records))

    # Checks: the outputs on disk are the last pass's; every other pass must
    # match them digest for digest.
    reference = {rec["cmd"].id: rec for rec in passes[-1][2]}
    attempted = failed = 0
    for label, wall, records in passes:
        print(f"pass {label}: {wall:.4f} s")
        for rec in records:
            cmd = rec["cmd"]
            errors = []
            if rec["rc"] != cmd.expected_rc:
                errors.append(f"exit code {rec['rc']}, expected {cmd.expected_rc}: "
                              f"{rec['stderr'].strip()[-400:]}")
            elif rec is reference[cmd.id]:
                try:
                    errors.extend(cmd.check(cmd, rec["stdout"], info))
                except Exception as exc:
                    errors.append(f"output check raised {exc!r}")
            elif rec["digest"] != reference[cmd.id]["digest"]:
                errors.append("output digest differs from the last pass")
            attempted += 1
            failed += bool(errors)
            status = "FAILED " + "; ".join(errors) if errors else "ok"
            print(f"  {cmd.id:28s} {rec['wall']:9.4f} s  {rec['digest'][:16]}  {status}")

    if args.trace:
        fig, residuals = tracer.figures(walls)
        fig["trace.overhead_frac"] = traced_wall / wall_s - 1.0
        for command, res in residuals.items():
            print(f"  traced {command:28s} wall {walls[command]:.4f} s, "
                  f"residual {res:.6f} s")
        path = os.path.join(out_root, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"machine": machine, "workload": args.workload, "seed": args.seed,
                       "command_walls": walls, "residuals": residuals,
                       "figures": fig, "spans": tracer.dump()}, fh)
        print(f"spans written to {os.path.relpath(path, os.path.dirname(out_root))}")
        wanted = spec["per_layer"]
        values = {m["name"]: float(fig.get(m["name"], 0.0)) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {"wall_s": wall_s, "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb, "ok_frac": (attempted - failed) / attempted}
    print(f"timed passes: {len(timed)}, one pass {wall_s:.4f} s")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


if __name__ == "__main__":
    main()
