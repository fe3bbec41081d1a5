"""Seeded end-to-end benchmark of Traffic Warehouse (the ``repro`` package).

Run from the root of a source checkout::

    python3 perfbench/run.py --workload classroom_play --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``classroom_play``,
``scenario_cold``, ``scenario_warm``, ``traffic_analytics``.

Every measurement runs in a fresh interpreter (``child.py``) with a fixed
``PYTHONHASHSEED``, one BLAS thread and ``src`` on its path, pinned to the
CPU that is fastest when it starts (``cpu.py``):

1. a *prepare* process writes the seeded inputs (untimed);
2. with ``--trace 0``, ``SETUP_REPEATS`` processes only import and set up,
   then one process sets up and runs the timed closed loop with tracing off.
   ``setup_s`` is the median over all of them, each scaled to the reference
   CPU speed; the rest come from the timed process;
3. with ``--trace 1``, one process runs the loop in alternating untraced and
   traced blocks and reports the per-layer metrics and the tracing overhead.

Informational lines go to stdout first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cpu  # noqa: E402
import workloads  # noqa: E402  (imports nothing from repro at import time)

WORKLOADS = ("classroom_play", "scenario_cold", "scenario_warm", "traffic_analytics")
SETUP_REPEATS = 6
BUDGET_S = 170.0  # the whole command, prepare to last check
#: Scenario stores go on tmpfs when the host has one: on a shared disk the
#: store's fsyncs and file creations would time the neighbours, not the
#: program.  Everything else stays in the checkout.
TMPFS = Path("/dev/shm")
STORE_PREFIX = "perfbench-store-"

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics.  ``*_ms`` is mean self time per call; ``1/op`` is a
#: count per timed op; a layer a workload bypasses reads 0.
PER_LAYER = (
    ("modules.load_ms", "ms"),
    ("core.matrix_inits", "1/op"),
    ("core.matrix_init_ms", "ms"),
    ("game.level_build_ms", "ms"),
    ("game.place_packets_ms", "ms"),
    ("gdscript.instantiate_ms", "ms"),
    ("engine.nodes_per_level", "count"),
    ("render.scene_ascii_ms", "ms"),
    ("render.matrix_2d_ms", "ms"),
    ("game.quiz_ms", "ms"),
    ("scenarios.build_ms", "ms"),
    ("graphs.layers_ms", "ms"),
    ("graphs.overlay_ms", "ms"),
    ("scenarios.queue_wait_ms", "ms"),
    ("scenarios.service_overhead_ms", "ms"),
    ("runtime.async_submits", "1/op"),
    ("store.put_ms", "ms"),
    ("store.bytes_written", "B/op"),
    ("store.fsyncs", "1/op"),
    ("store.get_ms", "ms"),
    ("store.bytes_read", "B/op"),
    ("store.kb_per_scenario", "KB"),
    ("scenarios.cache_get_ms", "ms"),
    ("scenarios.l1_hit_rate", "ratio"),
    ("scenarios.l2_hit_rate", "ratio"),
    ("scenarios.evictions", "1/op"),
    ("scenarios.delta_ms", "ms"),
    ("scenarios.delta_rows_reused_ratio", "ratio"),
    ("analysis.window_ms", "ms"),
    ("analysis.merge_ms", "ms"),
    ("assoc.mxm_int64_ms", "ms"),
    ("assoc.mxm_float64_ms", "ms"),
    ("assoc.masked_mxm_ms", "ms"),
    ("assoc.mxv_ms", "ms"),
    ("assoc.mxm_flops", "1/op"),
    ("assoc.nnz_out", "1/op"),
    ("runtime.route_serial", "1/op"),
    ("runtime.route_pickle", "1/op"),
    ("runtime.route_shm", "1/op"),
    ("runtime.shm_bytes", "B/op"),
    ("runtime.worker_rss_mb", "MB"),
    ("obs.trace_overhead_pct", "%"),
)


class BenchError(RuntimeError):
    """A workload process failed or ran out of time; no result is printed."""


def _say(label: str, payload: object) -> None:
    print(f"# {label}: {json.dumps(payload, sort_keys=True, default=str)}", flush=True)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def _environment(seed: int, work: Path, store: Path) -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
        "work_filesystem": workloads.filesystem_of(work),
        "store_filesystem": workloads.filesystem_of(store),
    }


class Runner:
    """Starts the workload processes and enforces the time budget."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path, store: Path) -> None:
        self.args = [workload, None, str(work), str(store), str(seed), repr(seconds)]
        self.deadline = time.monotonic() + BUDGET_S
        # One BLAS thread: numpy's OpenBLAS otherwise starts a worker per CPU
        # that spins between the game's small products, so on a 2-vCPU VM a
        # classroom run kept both CPUs busy and timed the other vCPU too.
        self.env = dict(
            os.environ,
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
        )
        self.cpus = cpu.usable_cpus()
        self.env[cpu.CPUS_ENV] = ",".join(map(str, self.cpus))
        self.pins: list[dict[str, Any]] = []

    def pin_fastest_cpu(self) -> float:
        """Pin this process, and so the workload processes it starts next,
        to the CPU that is fastest right now (see ``cpu.py``); return the
        factor that scales times measured there to the reference speed."""
        pick = cpu.pin_fastest(self.cpus)
        self.pins.append(pick)
        return cpu.REF_LOOP_MS / pick["loop_ms"][pick["cpu"]]

    def child(self, mode: str) -> dict[str, Any]:
        args = list(self.args)
        args[1] = mode
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"time budget spent before the {mode} step")
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,  # one group: whatever it spawns dies with it
        )
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} step ran past the time budget") from None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the group
            except ProcessLookupError:
                pass
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} step exited with code {proc.returncode}")
        return json.loads(lines[-1])


def _verdict(result: dict[str, Any]) -> bool:
    checks_ok = all(c["failed"] == 0 for c in result.get("checks", {}).values())
    return checks_ok and result["failed"] == 0 and result["attempted"] >= 1


def _store_base(work: Path) -> Path:
    """A fresh store directory: on tmpfs if writable, else in *work*.

    Store directories that a killed run left behind (their pid is gone)
    are swept first.
    """
    if not (TMPFS.is_dir() and os.access(TMPFS, os.W_OK)):
        return work / "stores"
    for stale in TMPFS.glob(STORE_PREFIX + "*"):
        pid = stale.name[len(STORE_PREFIX):]
        if pid.isdigit() and not Path(f"/proc/{pid}").exists():
            shutil.rmtree(stale, ignore_errors=True)
    return TMPFS / f"{STORE_PREFIX}{os.getpid()}"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    base = ROOT / ".perfbench_work"
    work = base / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    store = _store_base(work)
    store.mkdir(parents=True, exist_ok=True)
    try:
        _say("environment", _environment(seed, work, store))
        runner = Runner(workload, seed, seconds, work, store)
        _say("inputs", runner.child("prepare")["info"])
        if trace:
            runner.pin_fastest_cpu()
            result = runner.child("trace")
            trace_file = work / "trace.json"
            if trace_file.exists():
                keep = ROOT / ".perfbench_traces" / f"{workload}-seed{seed}.json"
                keep.parent.mkdir(exist_ok=True)
                shutil.move(str(trace_file), keep)
            metrics = {
                name: {"value": float(result["layer"].get(name, 0.0)), "unit": unit}
                for name, unit in PER_LAYER
            }
            _say("registry_delta", result["registry_delta"])
        else:
            # each set-up is scaled to the reference speed of its CPU
            setups, raw_setups = [], []
            for mode in ["setup"] * SETUP_REPEATS + ["run"]:
                factor = runner.pin_fastest_cpu()
                result = runner.child(mode)
                raw_setups.append(result["setup_s"])
                setups.append(result["setup_s"] * factor)
            result["setup_s"] = statistics.median(setups)
            _say("setup_s_samples", {"scaled": setups, "measured": raw_setups})
            if "ops" not in result:
                raise BenchError("the timed phase completed no op")
            metrics = {name: {"value": float(result[name]), "unit": unit} for name, unit in END_TO_END}
            _say(
                "latency_tail",
                {"percentile": result["tail_percentile"], "samples": result["window_ops"],
                 "samples_beyond": result["tail_beyond"], "windows": result["windows"],
                 "ops": result["ops"]},
            )
            _say(
                "windows",
                {k: result[k] for k in ("window_speed_factors", "window_rates", "window_p50s_ms", "window_tails_ms") if k in result},
            )
        _say("cpu_checks", {"before_children": runner.pins, "in_run": result.get("cpu_checks")})
        _say("run", {k: result.get(k) for k in ("info", "checks", "errors", "elapsed_s")})
        return {
            "correct": _verdict(result),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(store, ignore_errors=True)
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
