"""Benchmark of the schedmech library on its public API.

Run from the repository root; the library is imported from ``src/``:

    python3 perfbench/run.py --workload campaign-bo64 --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs each
step untraced and then traced, with span wrappers installed, and reports
per-layer metrics; the spans are written to ``.bench_build/perfbench/``.
Either way the last line on stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in its own process and prints one table.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, so that no workload uses more threads than cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("campaign-bo64", "campaign-sieve512", "payments-bo256", "audit-n8")
# End-to-end times are rescaled to a machine on which Reference.time() takes
# REFERENCE_S, near its best time (three passes of about 2.6 ms) on a 2-vCPU
# Intel Xeon VM with Python 3.11, numpy 2.4 and scipy 1.17.
REFERENCE_S = 0.009
# Fresh processes timed for setup_s, spread over the run; the median is reported.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170
UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "call_p50_ms": "ms", "peak_rss_mb": "MB"}


def use_source_tree() -> None:
    """Import schedmech from this checkout's ``src/`` or exit nonzero."""
    if not (SRC / "schedmech" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'schedmech'} not found; run from a schedmech checkout")
    sys.path.insert(0, str(SRC))
    import schedmech

    if Path(schedmech.__file__).resolve().parent != SRC / "schedmech":
        sys.exit(f"perfbench: imported schedmech from {schedmech.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def run_step(wl, step: int, tracer=None):
    inputs = wl.inputs(step)
    outputs, times = [], []
    for call in wl.calls(inputs):
        if tracer is not None:
            tracer.step = step
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a raising call is a failed operation; the loop goes on
            out = exc
        times.append(time.perf_counter() - start)
        outputs.append(out)
    return inputs, outputs, times


class Reference:
    """Fixed work that uses no schedmech code, timed around every step.

    Other tenants of a shared host change the speed of identical work by up
    to 2x, for seconds to minutes at a time.  This kernel mixes what the
    workloads spend their time on (one dense assignment solve, a Python loop,
    numpy reductions on a small and on a tiny array, where call overhead
    dominates), so its time tracks the machine's speed for them.  Its arrays
    have shapes that no workload uses, and a first, untimed pass comes before
    the timed ones, so these start from the state the kernel left, not from
    the state the workload left.
    """

    timed_passes = 3

    def __init__(self):
        import numpy as np
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(0)
        self._cost = rng.random((192, 288))
        self._small = rng.random((48, 48))
        self._tiny = rng.random((7, 5))
        self._np = np
        self._lsa = linear_sum_assignment

    def _work(self) -> None:
        self._lsa(self._cost)
        total = 0.0
        for i in range(20_000):
            total += i * 0.5
        for _ in range(300):
            self._np.bincount(self._small.argmin(axis=1), minlength=48)
        for _ in range(150):
            self._np.bincount(self._tiny.argmin(axis=1), minlength=5).max()

    def time(self) -> float:
        self._work()
        start = time.perf_counter()
        for _ in range(self.timed_passes):
            self._work()
        return time.perf_counter() - start


@dataclass
class Loop:
    """What a run of steps did: call times, output digests and failures."""

    call_times: list = field(default_factory=list)  # one list per step
    digests: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def step_times(self) -> list[float]:
        return [sum(times) for times in self.call_times]

    @property
    def busy(self) -> float:
        return sum(self.step_times)

    def step(self, wl, step: int, tracer=None, expected_digest: str | None = None) -> None:
        """Run and check one step.  Outputs whose digest differs from a
        same-seed call's ``expected_digest`` fail the whole step."""
        inputs, outputs, times = run_step(wl, step, tracer)
        self.call_times.append(times)
        messages = wl.check(step, inputs, outputs)
        digest = wl.digest(outputs)
        failed = min(len(messages), wl.ops_per_step)
        if expected_digest is not None and digest != expected_digest:
            messages.append(f"output digest {digest} != same-seed digest {expected_digest}")
            failed = wl.ops_per_step
        self.digests.append(digest)
        self.failures.extend(f"step {step}: {msg}" for msg in messages)
        self.attempted += wl.ops_per_step
        self.failed += failed


def probe_setup(name: str, seed: int) -> tuple[float, str | None]:
    """Time a fresh process from spawn until its warm-up call has returned."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--probe-setup"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or not line:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return elapsed, json.loads(line)["digest"]


def percentile_line(times: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    times = sorted(times)
    text = f"n={len(times)} calls"
    for q in (0.99, 0.95, 0.9, 0.75):
        if len(times) * (1 - q) >= 10:
            text += f"; p{round(q * 100)} {times[int(q * len(times))] * 1e3:.3f} ms"
            break
    return text


def report(metrics: dict, units: dict, loop: Loop) -> str:
    return json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })


def print_failures(loop: Loop) -> None:
    for msg in loop.failures[:20]:
        print(f"FAIL {msg}")
    if len(loop.failures) > 20:
        print(f"FAIL ... {len(loop.failures) - 20} more")


def bench_untraced(name: str, wl, warm_digest, seed: int, seconds: float) -> str:
    """Run steps until ``seconds`` of call time, with SETUP_PROBES setup
    probes spread evenly over it.  The reference kernel is timed after
    each step and probe, and the times of each are rescaled by REFERENCE_S
    over the mean of the kernel times just before and just after it.  Wider
    windows, such as a rolling median of six, tracked the host's speed worse:
    it changes within seconds."""
    reference = Reference()
    kernel = [reference.time()]
    loop = Loop()
    step_events, probe_events, raw_setups = [], [], []
    for i in range(1, SETUP_PROBES + 1):
        while loop.busy < seconds * i / SETUP_PROBES:
            step = len(loop.call_times)
            loop.step(wl, step, expected_digest=warm_digest if step == 0 else None)
            step_events.append(len(kernel))
            kernel.append(reference.time())
        elapsed, digest = probe_setup(name, seed)
        raw_setups.append(elapsed)
        probe_events.append(len(kernel))
        kernel.append(reference.time())
        if digest != warm_digest:
            loop.failures.append(f"setup probe digest {digest} != warm-up digest {warm_digest}")
            loop.failed = min(loop.failed + wl.ops_per_step, loop.attempted)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def scale(event: int) -> float:
        """``event`` ran between kernel timings ``event - 1`` and ``event``."""
        return 2 * REFERENCE_S / (kernel[event - 1] + kernel[event])

    scales = [scale(event) for event in step_events]
    setups = [raw * scale(event) for raw, event in zip(raw_setups, probe_events)]
    calls = [t * k for times, k in zip(loop.call_times, scales) for t in times]
    busy = sum(t * k for t, k in zip(loop.step_times, scales))
    completed = loop.attempted - loop.failed
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": completed / busy,
        "call_p50_ms": statistics.median(calls) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "setup_s": statistics.median(raw_setups),
        "ops_per_s": completed / loop.busy,
        "call_p50_ms": statistics.median(t for times in loop.call_times for t in times) * 1e3,
        "kernel_ms": statistics.median(kernel) * 1e3,
        "kernel_timings": len(kernel),
    }
    if wl.reports:
        for step, digest in enumerate(loop.digests):
            print(f"report step={step} master_seed={wl.inputs(step)} sha256={digest}")
    print_failures(loop)
    print(f"reference kernel: median {raw['kernel_ms']:.3f} ms over {len(kernel)} timings; "
          f"times below are rescaled to {REFERENCE_S * 1e3:g} ms, raw values in brackets")
    print(f"setup_s {metrics['setup_s']:.4f} s (median of {len(setups)} fresh processes: "
          + ", ".join(f"{s:.3f}" for s in setups) + f") [{raw['setup_s']:.4f} s]")
    print(f"ops_per_s {metrics['ops_per_s']:.3f} ops/s ({completed} ops completed in {busy:.3f} s of calls) "
          f"[{raw['ops_per_s']:.3f} ops/s]")
    print(f"call_p50_ms {metrics['call_p50_ms']:.3f} ms ({percentile_line(calls)}) "
          f"[{raw['call_p50_ms']:.3f} ms]")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"failed_ratio {loop.failed / loop.attempted:.6g} 1 ({loop.failed} failed / {loop.attempted} attempted)")
    print("raw " + json.dumps(raw))
    return report(metrics, UNITS, loop)


def bench_traced(name: str, wl, warm_digest, seed: int, seconds: float, env: dict) -> str:
    import spans

    # Each step runs untraced, then traced on the same inputs, so that both
    # copies see the same machine conditions and the same work.
    loop, traced = Loop(), Loop()
    tracer = spans.Tracer()
    while loop.busy < seconds / 2:
        step = len(loop.call_times)
        loop.step(wl, step, expected_digest=warm_digest if step == 0 else None)
        tracer.install()
        try:
            traced.step(wl, step, tracer, expected_digest=loop.digests[step])
        finally:
            tracer.uninstall()
    steps = len(loop.step_times)
    traced_wall = traced.busy
    metrics, layer_self = spans.summarize(tracer.spans, traced_wall, loop.busy)
    loop.failures += traced.failures
    loop.attempted += traced.attempted
    loop.failed += traced.failed

    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(path, {"workload": name, "seed": seed, "steps": steps, "env": env})

    print_failures(loop)
    print(f"traced {steps} steps, {len(tracer.spans)} spans -> {path.relative_to(ROOT)}")
    print("self time by layer (s): " + ", ".join(f"{k} {v:.4f}" for k, v in layer_self.items())
          + f", untraced remainder {metrics['trace.untraced_s']:.4f}; traced wall {traced_wall:.4f}")
    for metric, unit in spans.METRICS:
        print(f"{metric} {metrics[metric]:.6g} {unit}")
    return report(metrics, dict(spans.METRICS), loop)


def run_all(args) -> int:
    """Every workload in its own process; one table of the results."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print()
    for name, result in rows:
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        cells = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
        ratio = result["failed"] / result["attempted"]
        cells.append(f"failed_ratio {ratio:.6g} 1 ({result['failed']}/{result['attempted']})")
        print(f"{name:18s} " + " | ".join(cells))
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)

    use_source_tree()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    _, warm_outputs, _ = run_step(wl, 0)
    warm_digest = wl.digest(warm_outputs)
    if args.probe_setup:
        print(json.dumps({"digest": warm_digest}), flush=True)
        return 0

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: closed loop, one client, one thread")
    if args.trace:
        line = bench_traced(args.workload, wl, warm_digest, args.seed, args.seconds, env)
    else:
        line = bench_untraced(args.workload, wl, warm_digest, args.seed, args.seconds)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
