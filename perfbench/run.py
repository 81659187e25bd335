"""Layered benchmark of the diskbands command line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 26 --trace 0

Each op is a fresh ``python -m diskbands ...`` process of the checkout's
``src`` tree, so import and the cold zero cache are paid on every op, as for
a CLI user.  The load is a closed loop: one client, one child at a time, ops
in whole cycles of the workload's kinds for about ``--seconds``.
Every op's stdout is checked against scipy (``checks.py``); a failed check or
a nonzero exit counts the op as failed and never stops the pass.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: median wall time of a fresh ``python -c "import diskbands"``.
- ``op_s_p50``: median wall seconds per op, taken per op kind and averaged
  over the workload's kinds.
- ``ops_per_s``: ops completed and checked per second spent in ops.
- ``cpu_s_per_op``: mean user + sys CPU seconds of the op's child.
- ``peak_rss_mb``: the largest peak RSS of any op's child.

Times are scaled by ``SpeedProbe`` to a fixed reference machine speed; the
raw figures, the probe samples and ``fail_ratio`` are in the record.

``--trace 1`` runs each op both untraced and under ``tracer.py`` and prints
the per-layer metrics, per traced op: ``<layer>.<function>.calls`` and
``.self_s`` for every boundary function, ``<layer>.self_s``, the ratios
``bands.kernel_calls_per_band`` and ``bessel.kernel_calls_per_zero``,
``bessel.zeros_distinct``, ``cli.out_bytes`` and ``trace_overhead``.

``--workload all`` runs every workload in turn and prints one table.  The
last stdout line is the JSON result; the line before it is the full record
(environment, argv, stdout sha256 and timings of every op).  Exit code 2
means the checkout has no diskbands source to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
OP_TIMEOUT_S = 100.0
REFERENCE_PROBE_S = 0.13
PROBE_CODE = (
    "import numpy\n"
    "d = {}\n"
    "for i in range(60000):\n"
    "    k = (i % 97, i % 13)\n"
    "    d[k] = d.get(k, 0.0) + float(i) ** 0.5\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}

_ENV_PROBE = (
    "import json, sys, numpy, diskbands; print(json.dumps({"
    "'file': diskbands.__file__, 'backend': getattr(diskbands, 'BACKEND', 'missing'), "
    "'python': sys.version.split()[0], 'numpy': numpy.__version__}))"
)


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked."""


class Child:
    """One finished child process: stdout, exit code, wall seconds, CPU
    seconds (user + sys) and peak RSS in MB, from os.wait4."""

    def __init__(self, cmd: list[str], env: dict[str, str]):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        stderr: list[bytes] = []
        reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
        try:
            timer.start()
            reader.start()
            self.stdout = proc.stdout.read()
            reader.join()
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        self.wall = time.perf_counter() - t0
        self.code = proc.returncode
        self.stderr = b"".join(stderr)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment(env: dict[str, str]) -> dict:
    """Facts every result records; raises SetupError unless diskbands is
    imported from this checkout's src."""
    if not (SRC / "diskbands" / "__init__.py").is_file():
        raise SetupError("no diskbands package under %s" % SRC)
    probe = Child([sys.executable, "-c", _ENV_PROBE], env)
    if probe.code != 0:
        raise SetupError("import diskbands failed:\n%s" % probe.stderr.decode(errors="replace"))
    info = json.loads(probe.stdout)
    if not Path(info["file"]).resolve().is_relative_to(SRC):
        raise SetupError("diskbands imported from %s, not from %s" % (info["file"], SRC))
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(SRC / "diskbands"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": info["python"],
        "numpy": info["numpy"],
        "backend": info["backend"],
        "platform": platform.platform(),
    }


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _tree_sha256(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(top)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def kind_median(samples: dict[str, list[float]]) -> float:
    """Median per op kind, averaged over kinds: every cycle runs each kind
    once, so this is the median op of the workload's equal mix, unaffected
    by which kind the middle sample happens to fall on."""
    return statistics.fmean(statistics.median(v) for v in samples.values())


def check_op(kind: str, argv: list[str], result: Child) -> dict:
    problems = checks.check(argv, result.stdout) if result.code == 0 else [
        "exit code %d: %s" % (result.code, result.stderr.decode(errors="replace")[-300:])
    ]
    return {
        "kind": kind,
        "argv": argv,
        "exit": result.code,
        "sha256": hashlib.sha256(result.stdout).hexdigest(),
        "wall_s": result.wall,
        "cpu_s": result.cpu,
        "rss_mb": result.rss_mb,
        "problems": problems[:3],
    }


def _cycles(workload: str, seed: int, seconds: float):
    # whole cycles, at least one, while another as long as the last still
    # ends within `seconds`
    start = time.perf_counter()
    for cycle in workloads.op_cycles(workload, seed):
        began = time.perf_counter()
        yield cycle
        now = time.perf_counter()
        if 2 * now - start - began > seconds:
            return


class SpeedProbe:
    """Machine-speed reference measured between ops.

    Host contention on a shared machine swings the speed of every process
    by up to 1.7x over tens of seconds.  The probe, a fixed child that imports
    numpy and runs a pure-Python loop (the two kinds of work a CLI op does),
    is timed before and after each op; scaling the op by REFERENCE_PROBE_S
    over the mean of those two probe times reports it at a fixed reference
    speed.  The probe runs no diskbands code, so a change to the package
    cannot move it."""

    def __init__(self, env: dict[str, str]):
        self.env = env
        self.samples: list[float] = []
        self.last = self._measure()

    def _measure(self) -> float:
        # min of two: a single probe is as exposed to spikes as an op
        t = min(Child([sys.executable, "-c", PROBE_CODE], self.env).wall for _ in range(2))
        self.samples.append(t)
        return t

    def factor(self) -> float:
        """Scale for work done since the previous call."""
        before, self.last = self.last, self._measure()
        return REFERENCE_PROBE_S / (0.5 * (before + self.last))


def untraced_pass(workload: str, seed: int, seconds: float, env: dict[str, str]):
    probe = SpeedProbe(env)
    setup = []
    for _ in range(SETUP_REPS):
        child = Child([sys.executable, "-c", "import diskbands"], env)
        if child.code != 0:
            raise SetupError("import diskbands failed during set-up timing")
        setup.append((child.wall, probe.factor()))
    ops = []
    start = time.perf_counter()
    for cycle in _cycles(workload, seed, seconds):
        for kind, argv in cycle:
            op = check_op(kind, argv, Child([sys.executable, "-m", "diskbands", *argv], env))
            op["speed_factor"] = probe.factor()
            ops.append(op)
    elapsed = time.perf_counter() - start
    walls: dict[str, list[float]] = {}
    raw_walls: dict[str, list[float]] = {}
    for op in ops:
        walls.setdefault(op["kind"], []).append(op["wall_s"] * op["speed_factor"])
        raw_walls.setdefault(op["kind"], []).append(op["wall_s"])
    failed = sum(1 for op in ops if op["problems"])
    metrics = {
        "setup_s": statistics.median(wall * factor for wall, factor in setup),
        "op_s_p50": kind_median(walls),
        "ops_per_s": (len(ops) - failed) / sum(sum(v) for v in walls.values()),
        "cpu_s_per_op": statistics.fmean(op["cpu_s"] * op["speed_factor"] for op in ops),
        "peak_rss_mb": max(op["rss_mb"] for op in ops),
    }
    extra = {
        "op_samples": len(ops),
        "fail_ratio": failed / len(ops),
        "raw": {
            "setup_s": statistics.median(wall for wall, _ in setup),
            "op_s_p50": kind_median(raw_walls),
            "ops_per_s": (len(ops) - failed) / elapsed,
            "cpu_s_per_op": statistics.fmean(op["cpu_s"] for op in ops),
            "probe_samples_s": probe.samples,
        },
    }
    return ops, metrics, END_TO_END_UNITS, extra


def traced_pass(workload: str, seed: int, seconds: float, env: dict[str, str]):
    ops = []
    overheads = []
    per_op = []
    status = None
    for cycle in _cycles(workload, seed, seconds):
        for kind, argv in cycle:
            plain = check_op(kind, argv, Child([sys.executable, "-m", "diskbands", *argv], env))
            traced = Child([sys.executable, tracer.__file__, *argv], env)
            op = {"kind": kind, "argv": argv, "untraced": plain, "problems": list(plain["problems"])}
            try:
                if traced.code != 0:
                    raise ValueError("exit %d: %s" % (traced.code, traced.stderr.decode(errors="replace")[-300:]))
                header, out, spans = tracer.read_child_output(traced.stdout)
            except ValueError as exc:
                op["problems"].append("traced child: %s" % exc)
            else:
                status = header["status"]
                layer = tracer.analyse(header, spans)
                digest = hashlib.sha256(out).hexdigest()
                if header["exit"] != 0 or digest != plain["sha256"]:
                    op["problems"].append("traced op differs: exit %r, sha256 %s" % (header["exit"], digest))
                # self times plus un-spanned time must account for the wall time
                residual = layer["self_sum_s"] + layer["unspanned_s"] - layer["wall_s"]
                if abs(residual) > 1e-9 * max(1.0, layer["wall_s"]):
                    op["problems"].append("span self times miss wall time by %r s" % residual)
                op.update(traced_wall_s=traced.wall, spans=header["spans"], unspanned_s=layer["unspanned_s"])
                per_op.append(layer)
                overheads.append(traced.wall / plain["wall_s"])
            ops.append(op)
    metrics, units = layer_metrics(per_op, status)
    # the same argv run untraced then traced, back to back, so both see the
    # same machine speed
    metrics["trace_overhead"] = statistics.median(overheads) if overheads else None
    units["trace_overhead"] = "ratio"
    extra = {
        "op_samples": len(ops),
        "fail_ratio": sum(1 for op in ops if op["problems"]) / len(ops),
        "boundary_status": dict(zip((tracer.metric_name(i) for i in range(len(tracer.BOUNDARIES))), status or [])),
    }
    return ops, metrics, units, extra


def layer_metrics(per_op: list[dict], status: list[str] | None):
    """Per-op means of the traced numbers.  A boundary that no longer exists
    reports None ("missing"), never 0 calls."""
    n = max(len(per_op), 1)
    names = [tracer.metric_name(i) for i in range(len(tracer.BOUNDARIES))]
    found = dict(zip(names, [s == "ok" for s in status] if status else [False] * len(names)))

    def total(key, i=None):
        return sum(op[key] if i is None else op[key][i] for op in per_op)

    def unless_missing(needs, value):
        return value() if all(found[name] for name in needs) else None

    metrics: dict[str, float | None] = {}
    units: dict[str, str] = {}
    layer_self: dict[str, list[float]] = {}
    for i, name in enumerate(names):
        metrics[name + ".calls"] = unless_missing([name], lambda: total("calls", i) / n)
        metrics[name + ".self_s"] = unless_missing([name], lambda: total("self_s", i) / n)
        units[name + ".calls"], units[name + ".self_s"] = "count/op", "s/op"
        if found[name]:
            layer_self.setdefault(tracer.BOUNDARIES[i][0], []).append(metrics[name + ".self_s"])
    for layer in tracer.LAYERS:
        metrics[layer + ".self_s"] = sum(layer_self[layer]) if layer in layer_self else None
        units[layer + ".self_s"] = "s/op"

    def ratio(num, den):
        return num / den if den else 0.0

    kernel, band, zero = "kernel.bessel_j_kernel", "bands.band_interval", "bessel.bessel_zero"
    metrics["bands.kernel_calls_per_band"] = unless_missing(
        [kernel, band], lambda: ratio(total("kernel_under_band"), total("calls", names.index(band))))
    metrics["bessel.zeros_distinct"] = unless_missing([zero], lambda: total("zeros_distinct") / n)
    metrics["bessel.kernel_calls_per_zero"] = unless_missing(
        [kernel, zero], lambda: ratio(total("kernel_under_zero"), total("zeros_distinct")))
    metrics["cli.out_bytes"] = total("out_bytes") / n
    units.update({
        "bands.kernel_calls_per_band": "calls/band",
        "bessel.zeros_distinct": "count/op",
        "bessel.kernel_calls_per_zero": "calls/zero",
        "cli.out_bytes": "bytes/op",
    })
    return metrics, units


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict[str, str]) -> dict:
    run = traced_pass if trace else untraced_pass
    ops, metrics, units, extra = run(workload, seed, seconds, env)
    return {
        "workload": workload,
        "ops": ops,
        "metrics": metrics,
        "units": units,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["problems"]),
        **extra,
    }


def _metric_entry(value, unit):
    if value is None:
        return {"value": None, "unit": unit, "status": "missing"}
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one core for the parent, every child and the speed probe, so the probe
    # sees the contention the op sees
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    try:
        info = environment(env)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace), env) for w in names]

    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        print("%-9s %-40s %14d ops" % (res["workload"], "op_samples", res["attempted"]))
        print("%-9s %-40s %14.6g failed/attempted" % ("", "fail_ratio", res["fail_ratio"]))
        for name, value in res["metrics"].items():
            unit = res["units"][name]
            shown = "missing" if value is None else "%.6g" % value
            print("%-9s %-40s %14s %s" % ("", name, shown, unit))
            metrics[prefix + name] = _metric_entry(value, unit)
    record = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, **info, "results": results}
    print(json.dumps({"record": record}))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
