"""optsmp benchmark: one seeded workload through ``optsmp.cli.main`` in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop: one client in one process, no threads, sends the workload's
requests one after another, each with ``--out`` pointing at a scratch file,
and repeats the request list ("a pass") until ``--seconds`` have run. Every
output is checked against an independent reference (``checks.py``) and every
pass must reproduce the first pass byte for byte.

Timings are reported in reference seconds. A fixed pure-Python loop that
does not touch ``optsmp`` is timed before every request and after the last;
each request's latency is scaled by ``REFERENCE_LOOP_S`` over the median of
the six loop times nearest it, three before and three after. On a shared host whose speed
drifts by tens of percent within a minute this cancels the drift, while a
change to the program still moves every timing in full. The measured
(unscaled) figures are printed too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the tracing
overhead and a ``tracemalloc`` memory pass. The last line of stdout is one
JSON object; the exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import os
import sys
import time

# BLAS/OpenMP pools are fixed to one thread before numpy can load: the
# workload is one client in one process, and verify's dense eigh must not
# spawn threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
MIN_PASSES = 3
#: Time of :func:`calibration_loop` on the reference machine: a shared
#: 2-vCPU x86_64 VM, Python 3.11, in a typical phase of its speed. A timing
#: in reference seconds is what the request would take at that speed.
REFERENCE_LOOP_S = 2.5e-3
#: Loop times taken on each side of a request that its latency is scaled by.
#: One loop time is jittery, and a few requests of ``tradeoff-reports`` run
#: for seconds between two of them.
SPEED_WINDOW = 3


class SetupError(Exception):
    """The benchmark cannot run: no program in this checkout, or one of its
    helper processes failed."""


def import_program():
    """Import ``optsmp`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "optsmp" / "cli.py").is_file():
        raise SetupError(f"no optsmp sources under {src}")
    sys.path.insert(0, str(src))
    import optsmp.cli

    if Path(optsmp.__file__).resolve().parent != src / "optsmp":
        raise SetupError(f"imported optsmp from {optsmp.__file__}, not from {src}")
    return optsmp.cli


def prepare(workload: str, seed: int, scratch: Path):
    """Set-up: import the program and write the seeded inputs.

    Returns ``(cli, requests, argvs, out_paths)``; every argv is complete.
    """
    cli = import_program()
    requests = workloads.GENERATORS[workload](seed)
    argvs, outs = [], []
    for i, req in enumerate(requests):
        argv = list(req.argv)
        if req.config is not None:
            path = scratch / f"req{i}.json"
            path.write_text(json.dumps(req.config))
            argv[1:1] = ["--config", str(path)]
        out = scratch / f"out{i}.txt"
        argvs.append(argv + ["--out", str(out)])
        outs.append(out)
    return cli, requests, argvs, outs


#: The calibration loop's working set, built once: a dict keyed by tuples,
#: about the size the program's state dicts reach, and its keys in order.
CALIBRATION_TABLE = {(i, i * 7 % 13): i % 11 for i in range(4096)}
CALIBRATION_KEYS = list(CALIBRATION_TABLE)


def calibration_loop() -> float:
    """Time one run of a fixed pure-Python loop that does not call
    ``optsmp``: tuple hashing, dict lookups and integer arithmetic over a
    table built once. It allocates next to nothing, so its time does not
    depend on how much memory the program has left behind."""
    table, keys = CALIBRATION_TABLE, CALIBRATION_KEYS
    start = time.perf_counter()
    acc = 0
    for _ in range(6):
        for key in keys:
            acc = (acc + table[key] * key[1]) % 1009
    return time.perf_counter() - start


def to_reference(seconds: float, loop_s: float) -> float:
    """Scale a measured time to reference seconds by a calibration loop time
    taken around it."""
    return seconds * REFERENCE_LOOP_S / loop_s


def run_pass(main, argvs, outs, tracer=None):
    """Send every request once, timing the calibration loop before each
    request and after the last. Returns (latencies, scaled, results): the
    measured latencies, the same in reference seconds, and per request
    (exit code, output bytes, first stderr line)."""
    latencies, loops, results = [], [calibration_loop()], []
    clock = time.perf_counter
    for i, (argv, out) in enumerate(zip(argvs, outs)):
        if tracer is not None:
            tracer.request = i
        err = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        latencies.append(clock() - t0)
        loops.append(calibration_loop())
        data = out.read_bytes() if out.exists() else b""
        if data:
            out.unlink()
        results.append((code, data, err.getvalue().partition("\n")[0]))
    # loops[i] ran just before request i and loops[i + 1] just after it.
    scaled = [
        to_reference(lat, statistics.median(loops[max(0, i + 1 - SPEED_WINDOW) : i + 1 + SPEED_WINDOW]))
        for i, lat in enumerate(latencies)
    ]
    return latencies, scaled, results


class Ledger:
    """Counts attempted and failed requests and keeps the reference hashes."""

    def __init__(self, requests) -> None:
        self.requests = requests
        self.hashes: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[dict] = []
        self.output_bytes = 0

    def fail(self, i: int, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"request {i} ({' '.join(self.requests[i].argv)}): {why}")

    def record(self, results) -> None:
        hashes = [hashlib.sha256(data).hexdigest() for _, data, _ in results]
        first = self.hashes is None
        for i, (code, data, err) in enumerate(results):
            self.attempted += 1
            notes: dict = {}
            if first:
                self.notes.append(notes)
            if code != 0:
                self.fail(i, f"exit {code}: {err or data.decode(errors='replace').splitlines()[-1:]}")
            elif first:
                problems = checks.check_output(self.requests[i].check, self.requests[i].config, data.decode(), notes)
                if problems:
                    self.fail(i, "; ".join(problems))
            elif hashes[i] != self.hashes[i]:
                self.fail(i, "output differs from the first pass of the same seed")
        if first:
            self.hashes = hashes
            self.output_bytes = sum(len(data) for _, data, _ in results)

    def compare(self, hashes: list[str], where: str) -> None:
        for i, (h, ref) in enumerate(zip(hashes, self.hashes)):
            self.attempted += 1
            if h != ref:
                self.fail(i, f"output differs in {where}")

    def digest(self) -> str:
        return hashlib.sha256("".join(self.hashes or []).encode()).hexdigest()


def child(args, *flags: str, env=None) -> subprocess.Popen:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), *flags]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up times, spawn to the child's ``ready`` line:
    measured, and in reference seconds.

    All probes are scaled by the median of the calibration loop times taken
    between them, three before each probe and after the last: the probes
    take a few seconds in all, and one loop time next to a process start
    is too jittery to scale a single probe by."""
    times, loops = [], []
    for _ in range(SETUP_PROBES):
        loops += [calibration_loop() for _ in range(3)]
        start = time.perf_counter()
        proc = child(args, "--setup-probe")
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise SetupError(f"set-up probe failed (exit {code}, said {line!r})")
    loops += [calibration_loop() for _ in range(3)]
    speed = statistics.median(loops)
    return times, [to_reference(t, speed) for t in times]


def replay_hashes(args) -> list[str]:
    """Run the request list once in a fresh process with another hash seed."""
    env = dict(os.environ, PYTHONHASHSEED="12345")
    proc = child(args, "--replay", env=env)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0:
        raise SetupError(f"replay process exited {code}")
    return json.loads(out.splitlines()[-1])


def until(seconds: float, minimum: int):
    """Yield pass numbers until ``minimum`` passes have run and one more
    pass, of the mean length so far, would end after ``seconds``."""
    start = time.perf_counter()
    count = 0
    while count < minimum or (time.perf_counter() - start) * (count + 1) / count <= seconds:
        yield count
        count += 1


def probe_defects(main, scratch: Path) -> list[str]:
    """Run each known-defect repro once; report how each one ended."""
    lines = []
    for name, argv in workloads.KNOWN_DEFECTS:
        out = scratch / f"defect-{name}.txt"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--out", str(out)])
        text = out.read_text() if out.exists() else ""
        first = err.getvalue().partition("\n")[0] or next(
            (line for line in text.splitlines() if line.startswith("counterexample")), ""
        )
        state = "reproduced" if code != 0 else "no longer reproduces"
        lines.append(f"known defect {name}: {state}, exit {code}: {first} [optsmp {' '.join(argv)}]")
    return lines


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def provenance() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def timed_run(args, cli, requests, argvs, outs, ledger):
    setup_raw, setup = setup_seconds(args)
    counter = [0]
    restore = tracing.count_pairs(counter)
    raw, passes = [], []
    try:
        for n in until(args.seconds, MIN_PASSES):
            counter[0] = 0
            lat, scaled, results = run_pass(cli.main, argvs, outs)
            raw.append(lat)
            passes.append(scaled)
            ledger.record(results)
            pairs = counter[0]
            if n == 0:
                # After one pass: memory held by reference cycles is freed only
                # by a later cyclic collection, so the high-water mark keeps
                # creeping up with the number of passes.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        restore()
    planned = sum(r.pairs for r in requests)
    if planned and pairs != planned:
        ledger.fail(0, f"evaluated {pairs} pairs per pass, the request list plans {planned}")
    # Every pass carries the same work, so the mean pass is the run's total
    # time over its passes; runs of a slow workload hold only three or four.
    walls = [sum(lat) for lat in passes]
    wall_s = statistics.mean(walls)
    pooled = [latency for lat in passes for latency in lat]
    p90 = percentile(pooled, 90)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "pairs_per_s": (pairs / wall_s, "pairs/s"),
        "request_p50_s": (percentile(pooled, 50), "s"),
        "request_p90_s": (p90, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    measured = [latency for lat in raw for latency in lat]
    info = [
        f"passes={len(walls)} requests/pass={len(argvs)} pairs/pass={pairs} "
        f"(p90 of {len(pooled)} latencies has {sum(1 for v in pooled if v > p90)} beyond)",
        f"pass walls (reference s)={[round(w, 4) for w in walls]}",
        f"measured, unscaled: wall_s={statistics.mean(sum(lat) for lat in raw):.6g} "
        f"request_p50_s={percentile(measured, 50):.6g} request_p90_s={percentile(measured, 90):.6g} "
        f"setup_s={statistics.median(setup_raw):.6g}",
        f"set-up samples (reference s)={[round(s, 4) for s in setup]}",
    ]
    return metrics, info, raw, passes


def traced_run(args, cli, requests, argvs, outs, ledger):
    untraced, traced, layer = [], [], None
    for _ in until(args.seconds, 1):
        _, scaled, results = run_pass(cli.main, argvs, outs)
        untraced.append(sum(scaled))
        ledger.record(results)
        tracer = tracing.Tracer()
        main = tracer.wrap("cli.main", cli.main)
        restore = tracing.install(tracer)
        try:
            lat, scaled, results = run_pass(main, argvs, outs, tracer)
        finally:
            restore()
        traced.append(sum(scaled))
        ledger.record(results)
        if layer is None:
            layer = tracing.summarize(tracer.spans, sum(lat))
            evaluating = {span[4] for span in tracer.spans if span[0] == "smp.evaluate_error"}
            spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.csv"
            tracing.write_spans(tracer.spans, spans_path)
    layer["cli.output_bytes"] = ledger.output_bytes
    layer["trace.untraced_wall_s"] = statistics.median(untraced)
    layer["trace.wall_s"] = statistics.median(traced)
    layer["trace.overhead_s"] = layer["trace.wall_s"] - layer["trace.untraced_wall_s"]

    # Memory pass, under tracemalloc: the first request of each shape among
    # those the traced pass saw evaluate a protocol.
    peaks: list[tuple[int, int]] = []
    firsts = {}
    for i in sorted(evaluating):
        firsts.setdefault(requests[i].shape, i)
    restore = tracing.measure_memory(peaks)
    tracemalloc.start()
    try:
        for i in firsts.values():
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main(argvs[i])
            outs[i].unlink(missing_ok=True)
    finally:
        tracemalloc.stop()
        restore()
    pairs = sum(p for _, p in peaks)
    layer["smp.evaluate_error.peak_bytes_per_pair"] = sum(b for b, _ in peaks) / pairs if pairs else 0.0

    ledger.compare(replay_hashes(args), "a fresh process with another hash seed")
    info = [
        f"untraced passes={[round(w, 4) for w in untraced]} traced passes={[round(w, 4) for w in traced]} "
        f"spans written to {spans_path.relative_to(ROOT)}",
    ]
    return {name: (value, UNITS.get(name.rsplit(".", 1)[-1], "count")) for name, value in layer.items()}, info


UNITS = {
    "busy_s": "s", "self_s": "s", "wall_s": "s", "overhead_s": "s", "untraced_wall_s": "s",
    "hit_ratio": "ratio", "binding_ratio": "ratio", "share": "ratio",
    "output_bytes": "bytes", "peak_bytes_per_pair": "bytes",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one seeded optsmp benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0, help="pass time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS))
    try:
        return _main(args, scratch)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _main(args, scratch: Path) -> int:
    cli, requests, argvs, outs = prepare(args.workload, args.seed, scratch)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    if args.replay:
        _, _, results = run_pass(cli.main, argvs, outs)
        print(json.dumps([hashlib.sha256(data).hexdigest() for _, data, _ in results]))
        return 0

    ledger = Ledger(requests)
    latencies, scaled = [], []
    if args.trace:
        metrics, info = traced_run(args, cli, requests, argvs, outs, ledger)
    else:
        metrics, info, latencies, scaled = timed_run(args, cli, requests, argvs, outs, ledger)
    defects = probe_defects(cli.main, scratch)
    correct = ledger.failed == 0
    prov = provenance()

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(*info, sep="\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:.6g} {unit}")
    print(f"{'failed_ratio':45s} {ledger.failed / ledger.attempted:.6g} ({ledger.failed}/{ledger.attempted})")
    for notes, req in zip(ledger.notes, requests):
        if "inflation" in notes:
            print(f"binding {req.shape} delta={req.check['truncate']:.6g}: inflation {notes['inflation']:.6g} "
                  f"<= 2 sqrt(delta) {notes['two_sqrt_delta']:.6g}")
    print(*defects, sep="\n")
    print(f"outputs_sha256={ledger.digest()}")
    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "provenance": prov,
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info, "known_defects": defects, "problems": ledger.problems, "outputs_sha256": ledger.digest(),
        "latencies": latencies, "reference_latencies": scaled,
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
