"""Workloads, output checks and the traced run of the drlqg benchmark.

The untraced run drives the user-facing entry point ``drlqg.cli.main`` in
process, times every ``solve``, ``verify`` and ``evaluate`` call, checks each
output and reports the end-to-end metrics.  The traced run works from outside
the package: it records a span around every call it makes into a public
function of a ``drlqg`` module, replays the solver's phases on the iterates a
solve produced, and derives the per-layer metrics from the spans.  Nothing is
timed inside ``src/drlqg``.

``run.py`` is the command-line entry; it caps the BLAS threads before numpy is
imported and then calls :func:`run`.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import io as _stdio
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "_runs"
REFERENCE = HERE / "reference.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import drlqg  # noqa: E402
from drlqg import cli  # noqa: E402
from drlqg import io as dio  # noqa: E402
from drlqg.ambiguity import oracle_maximize, sample_feasible  # noqa: E402
from drlqg.gradient import grad_f  # noqa: E402
from drlqg.instances import generate_instance  # noqa: E402
from drlqg.lqg import (  # noqa: E402
    CovarianceProfile,
    assemble_controller,
    kalman_forward,
    lqg_value,
    monte_carlo_cost,
    riccati_backward,
    sample_noise,
)
from drlqg.solver import FWConfig, solve  # noqa: E402
from drlqg.stacked import (  # noqa: E402
    build_stacked,
    controller_cost_trace,
    output_to_purified,
    unroll_kalman,
)

SETUP_REPEATS = 3
# Speed-kernel time that scaled timings refer to.  On the reference machine
# (2-core Xeon VM at 2.1 GHz, numpy 2.4.6, scipy-openblas 0.3.31) the
# kernel's run medians were 20-31 ms.
KERNEL_REF_S = 0.020
# Instances per workload and seed.  Iteration counts differ between
# instances, so a run cycles through several and its median moves less
# with the seed.
INSTANCES = 8
# sampled profiles replayed per traced verify; enough for a median per call
REPLAY_SAMPLES = 3
TOL = 1e-4  # --tol of every solve
F_REL_TOL = 1e-8
BALL_TOL = 1e-7  # the containment tolerance `drlqg verify` uses


@dataclass(frozen=True)
class Workload:
    """One workload: instance family, CLI arguments and cycle contents.

    Every cycle solves the next of ``INSTANCES`` instances (n=m=p=T=``n`` at
    radius ``rho``), then runs ``verify --samples`` and ``evaluate
    --rollouts`` ``audits`` times each on one bundle: the bundle solved during
    set-up when ``audit_bundle`` is set, else the bundle of instance 0.
    ``max_iter`` of None keeps the CLI default.
    """

    name: str
    n: int
    rho: float
    samples: int
    rollouts: int
    audits: int = 1
    audit_bundle: bool = False
    max_iter: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-small", n=10, rho=2.0, samples=10, rollouts=10_000, audits=3
        ),
        Workload("solve-large", n=20, rho=0.5, samples=1, rollouts=2_000),
        Workload(
            "audit", n=10, rho=0.5, samples=100, rollouts=100_000, audit_bundle=True
        ),
    )
}

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

# per-call layer metrics: metric -> (span name, unit)
LAYER_SPANS = {
    "ambiguity.oracle_ms": ("ambiguity.oracle_maximize", "ms"),
    "ambiguity.sample_feasible_ms": ("ambiguity.sample_feasible", "ms"),
    "lqg.riccati_ms": ("lqg.riccati_backward", "ms"),
    "lqg.kalman_ms": ("lqg.kalman_forward", "ms"),
    "lqg.value_ms": ("lqg.lqg_value", "ms"),
    "lqg.profile_ms": ("lqg.CovarianceProfile", "ms"),
    "lqg.sample_noise_ms": ("lqg.sample_noise", "ms"),
    "gradient.adjoint_ms": ("gradient.grad_f", "ms"),
    "stacked.build_ms": ("stacked.build_stacked", "ms"),
    "stacked.cost_trace_ms": ("stacked.controller_cost_trace", "ms"),
    "stacked.unroll_ms": ("stacked.unroll_kalman", "ms"),
    "stacked.to_purified_ms": ("stacked.output_to_purified", "ms"),
    "io.write_bundle_ms": ("io.write_result_bundle", "ms"),
    "io.read_instance_ms": ("io.read_instance", "ms"),
    "io.read_controller_ms": ("io.read_controller", "ms"),
    "instances.generate_ms": ("instances.generate_instance", "ms"),
}

PER_LAYER = {
    "solver.iterations": "count",
    "solver.self_ms_per_iter": "ms",
    "solver.accounted_share": "ratio",
    "ambiguity.oracle_calls": "count",
    "ambiguity.bisections_per_call": "count/call",
    "lqg.rollout_us": "us",
    "io.bundle_bytes": "bytes",
    "trace.overhead_ms": "ms",
    "cli.fail_ratio": "ratio",
    **{name: unit for name, (_, unit) in LAYER_SPANS.items()},
}


def instance_seed(seed: int, i: int) -> int:
    """Generator seed of instance ``i`` of a run started with ``--seed seed``."""
    return 1000 * seed + i


# ---------------------------------------------------------------- machine


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "drlqg": drlqg.__version__,
    }


# ---------------------------------------------------------------- machine speed


class SpeedKernel:
    """A fixed numpy and Python kernel that never calls drlqg.

    The machine this benchmark was written on runs 20-30 % slower for minutes
    at a time, and every operation of a run slows together.  The run times
    this kernel before every operation; scaling the run's medians by
    ``KERNEL_REF_S`` over the kernel's median cancels that common slowdown,
    and a change to drlqg cannot move the kernel.
    """

    def __init__(self):
        rng = np.random.default_rng(20230527)
        self.mats = [m @ m.T + np.eye(10) for m in rng.standard_normal((24, 10, 10))]

    def measure(self) -> float:
        start = time.perf_counter()
        for _ in range(24):
            for m in self.mats:
                w, v = np.linalg.eigh(m)
                x = np.linalg.solve(m, (v * w) @ v.T)
                m = 0.5 * (x + x.T)
        return time.perf_counter() - start


# ---------------------------------------------------------------- tracing


class Tracer:
    """In-memory spans: id, op, name, parent, start, end (perf_counter s).

    A span opened with no span open starts an operation; every span opened
    inside it shares its op id.  ``op=`` attaches a new root span to an
    existing operation (the replay of a solve belongs to that solve).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ops = 0

    def _add(self, name: str, op: int | None, start: float) -> dict:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            op = parent["op"]
        elif op is None:
            op = self._ops
            self._ops += 1
        rec = {
            "id": len(self.spans),
            "op": op,
            "name": name,
            "parent": parent["id"] if parent is not None else None,
            "start": start,
            "end": None,
        }
        self.spans.append(rec)
        return rec

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        rec = self._add(name, op, time.perf_counter())
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Span around one call that opens no span itself, with the clock read
        right around the call so the bookkeeping stays outside it."""
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        self._add(name, None, start)["end"] = end
        return out


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def child_index(spans: list[dict]) -> dict[int, list[dict]]:
    """Span id -> its child spans, in start order."""
    kids: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    for v in kids.values():
        v.sort(key=lambda s: s["start"])
    return kids


def self_time(kids: dict[int, list[dict]], rec: dict) -> float:
    """Span duration minus the part of it its child spans cover."""
    covered, reach = 0.0, rec["start"]
    for c in kids.get(rec["id"], []):
        lo, hi = max(c["start"], reach), min(c["end"], rec["end"])
        if hi > lo:
            covered += hi - lo
            reach = hi
    return duration(rec) - covered


# ---------------------------------------------------------------- operations


def cli_call(argv: list[str]) -> tuple[float, int | None, str]:
    """Run ``drlqg <argv>`` in process: (wall seconds, exit code, output).

    An exception escaping the CLI is reported with code None and its
    traceback as output, so the caller counts it as a failed operation.
    """
    out = _stdio.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        out.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue()


def solve_args(w: Workload, instance: Path, bundle: Path) -> list[str]:
    args = ["solve", str(instance), "--out", str(bundle), "--tol", repr(TOL)]
    if w.max_iter is not None:
        args += ["--max-iter", str(w.max_iter)]
    return args


def block_labels(T: int) -> list[str]:
    return ["X0"] + [f"W[{t}]" for t in range(T)] + [f"V[{t}]" for t in range(T)]


def check_bundle(instance: Path, bundle: Path, reference: dict | None) -> list[str]:
    """Problems with a solve's result bundle; an empty list means it is correct.

    Checks that f matches ``lqg_value`` of the written worst case, that every
    block lies in its ball, that the surrogate gap at the worst case is within
    the tolerance and, where a reference is given, that f lies in the
    certified Frank-Wolfe bracket around it.
    """
    sys_, amb, _ = dio.read_instance(str(instance))
    cov, meta = dio.read_worst_case(str(bundle / "worst_case.json"))
    problems = []
    f = meta["f_value"]
    f_check = lqg_value(sys_, cov)
    if abs(f_check - f) > F_REL_TOL * abs(f_check):
        problems.append(f"f_value {f!r} differs from lqg_value {f_check!r}")
    blocks = [cov.X0, *cov.W, *cov.V]
    balls = amb.balls()
    for label, ball, block in zip(block_labels(sys_.T), balls, blocks):
        if not ball.contains(block, tol=BALL_TOL):
            problems.append(f"worst-case block {label} lies outside its ball")
    delta = meta["config"].delta
    gap = sum(
        oracle_maximize(ball, g, z, delta=delta).gap_contribution
        for ball, g, z in zip(balls, grad_f(sys_, cov).flat(), blocks)
    )
    if gap > TOL:
        problems.append(f"surrogate gap {gap:.3e} at the worst case exceeds tol {TOL:.1e}")
    if reference is not None:
        width = max(reference["gap"], gap) / delta
        if abs(f - reference["f"]) > width:
            problems.append(
                f"f {f!r} lies outside the certified bracket {reference['f']!r} +/- {width:.3e}"
            )
    return problems


class Run:
    """State of one benchmark run: files, timings, failures and spans."""

    def __init__(self, w: Workload, seed: int, workdir: Path):
        self.w = w
        self.seed = seed
        self.workdir = workdir
        self.tracer = Tracer()
        self.setups: list[float] = []
        self.times: dict[str, list[float]] = {"solve": [], "verify": [], "evaluate": []}
        self.kernel = SpeedKernel()
        self.kernel_times: list[float] = []
        self.traced_solves: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.reference = json.loads(REFERENCE.read_text()).get(w.name, {})

    def instance(self, i: int) -> Path:
        return self.workdir / f"inst-{i}.json"

    def bundle(self, i: int) -> Path:
        return self.workdir / f"bundle-{i}"

    def target(self) -> Path:
        """The bundle that verify and evaluate audit."""
        return self.workdir / "bundle-setup" if self.w.audit_bundle else self.bundle(0)

    def record(self, what: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail.strip()[-2000:]}")

    # -- untraced operations through the CLI

    def sample_speed(self):
        self.kernel_times.append(self.kernel.measure())

    def cli_solve(self, i: int) -> float:
        self.sample_speed()
        wall, code, out = cli_call(solve_args(self.w, self.instance(i), self.bundle(i)))
        self.times["solve"].append(wall)
        self._check_solve(f"solve instance {i}", code == 0, out, i)
        return wall

    def _check_solve(self, what: str, ok: bool, out: str, i: int):
        if not ok:
            self.record(what, False, out)
            return
        try:
            reference = self.reference.get(str(instance_seed(self.seed, i)))
            problems = check_bundle(self.instance(i), self.bundle(i), reference)
        except Exception:
            problems = [traceback.format_exc()]
        self.record(what, not problems, "; ".join(problems))

    def cli_verify(self) -> float:
        self.sample_speed()
        b = self.target()
        args = ["verify", str(self.instance(0)), str(b), "--samples", str(self.w.samples)]
        wall, code, out = cli_call(args)
        self.times["verify"].append(wall)
        self.record("verify", code == 0, out)
        return wall

    def cli_evaluate(self) -> float:
        self.sample_speed()
        b = self.target()
        args = [
            "evaluate",
            str(self.instance(0)),
            str(b / "controller.json"),
            str(b / "worst_case.json"),
            "--rollouts",
            str(self.w.rollouts),
        ]
        wall, code, out = cli_call(args)
        self.times["evaluate"].append(wall)
        self.record("evaluate", code == 0, out)
        return wall

    # -- traced operations

    def traced_solve(self, i: int):
        """The CLI's solve pipeline through public calls, with a replay.

        The solve's ``on_iterate`` hook replays each iterate through the
        public functions the solver calls, right after the solver computed
        it, so both see the same machine conditions.  The hook's spans are
        children of the solve span; subtracting them leaves the solver's own
        time.
        """
        t = self.tracer
        limit = {} if self.w.max_iter is None else {"max_iter": self.w.max_iter}
        cfg = FWConfig(tol=TOL, **limit)
        bisections: list[int] = []
        try:
            with t.span("op.solve") as op:
                sys_, amb, _ = t.call("io.read_instance", dio.read_instance, str(self.instance(i)))
                replay = IterateReplay(t, sys_, amb, cfg.delta, bisections)
                with t.span("solver.solve") as solve_span:
                    sol = solve(sys_, amb, cfg, on_iterate=replay)
                gain = t.call("stacked.unroll_kalman", unroll_kalman, sys_, sol.worst_case)
                t.call(
                    "io.write_result_bundle",
                    dio.write_result_bundle, str(self.bundle(i)), sol, gain.U,
                )
            with t.span("replay.solve", op=op["op"]) as tail:
                t.call("lqg.assemble_controller", assemble_controller, sys_, sol.worst_case)
        except Exception:
            self.record(f"traced solve instance {i}", False, traceback.format_exc())
            return
        self._check_solve(f"traced solve instance {i}", sol.converged, "not converged", i)
        files = ("worst_case.json", "controller.json")
        sizes = [(self.bundle(i) / f).stat().st_size for f in files]
        self.traced_solves.append(
            {
                "op": op,
                "solve": solve_span,
                "tail": tail,
                "iterations": len(sol.trace),
                "bisections": bisections,
                "iteration_s": np.diff([0.0] + [rec.wall_time for rec in sol.trace]).tolist(),
                "bundle_bytes": sum(sizes),
            }
        )

    def traced_verify(self):
        t = self.tracer
        with t.span("op.verify") as op:
            self.cli_verify()
        try:
            with t.span("replay.verify", op=op["op"]):
                replay_verify(t, self.instance(0), self.target(), self.seed)
        except Exception:
            self.record("verify replay", False, traceback.format_exc())

    def traced_evaluate(self):
        t = self.tracer
        with t.span("op.evaluate") as op:
            self.cli_evaluate()
        try:
            with t.span("replay.evaluate", op=op["op"]):
                replay_evaluate(t, self.instance(0), self.target(), self.w.rollouts)
        except Exception:
            self.record("evaluate replay", False, traceback.format_exc())


class IterateReplay:
    """``on_iterate`` hook: replay one iterate's phases, one span per call.

    Iteration k of the solver builds iterate k from the previous step (k > 0),
    runs the Kalman recursion, the value, the adjoint gradient and one oracle
    call per block; the hook repeats exactly those calls.  On the first
    iterate it also repeats the ball construction and the Riccati recursion
    the solver runs once before its loop.
    """

    def __init__(self, t: Tracer, sys_, amb, delta: float, bisections: list[int]):
        self.t, self.sys, self.amb, self.delta = t, sys_, amb, delta
        self.bisections = bisections
        self.balls = self.ric = None

    def __call__(self, k: int, cov, gap: float):
        t, sys_ = self.t, self.sys
        with t.span("replay.iterate"):
            if self.balls is None:
                self.balls = t.call("ambiguity.balls", self.amb.balls)
                self.ric = t.call("lqg.riccati_backward", riccati_backward, sys_)
            if k:
                t.call("lqg.CovarianceProfile", CovarianceProfile, X0=cov.X0, W=cov.W, V=cov.V)
            kal = t.call("lqg.kalman_forward", kalman_forward, sys_, cov)
            t.call("lqg.lqg_value", lqg_value, sys_, cov, riccati=self.ric, kalman=kal)
            grads = t.call("gradient.grad_f", grad_f, sys_, cov, riccati=self.ric, kalman=kal)
            for ball, g, z in zip(self.balls, grads.flat(), [cov.X0, *cov.W, *cov.V]):
                r = t.call(
                    "ambiguity.oracle_maximize", oracle_maximize, ball, g, z, delta=self.delta
                )
                self.bisections.append(r.iterations)


def replay_verify(t: Tracer, instance: Path, bundle: Path, seed: int):
    """One call of each layer ``verify`` uses, on the audited bundle."""
    sys_, amb, _ = t.call("io.read_instance", dio.read_instance, str(instance))
    worst_case = str(bundle / "worst_case.json")
    cov, _ = t.call("io.read_worst_case", dio.read_worst_case, worst_case)
    t.call("io.read_controller", dio.read_controller, str(bundle / "controller.json"))
    st = t.call("stacked.build_stacked", build_stacked, sys_)
    gain = t.call("stacked.unroll_kalman", unroll_kalman, sys_, cov)
    upur = t.call("stacked.output_to_purified", output_to_purified, gain, st)
    rng = np.random.default_rng(seed)
    balls = amb.balls()
    for _ in range(REPLAY_SAMPLES):
        blocks = [t.call("ambiguity.sample_feasible", sample_feasible, b, rng) for b in balls]
        T = sys_.T
        profile = CovarianceProfile(X0=blocks[0], W=blocks[1 : 1 + T], V=blocks[1 + T :])
        t.call("stacked.controller_cost_trace", controller_cost_trace, st, upur, profile)


def replay_evaluate(t: Tracer, instance: Path, bundle: Path, rollouts: int):
    """The noise draw and the rollouts of ``evaluate``, each timed on its own."""
    sys_, _, _ = dio.read_instance(str(instance))
    cov, _ = dio.read_worst_case(str(bundle / "worst_case.json"))
    t.call("lqg.sample_noise", sample_noise, cov, rollouts, np.random.default_rng(0))
    ctrl = assemble_controller(sys_, cov)
    t.call("lqg.monte_carlo_cost", monte_carlo_cost, sys_, ctrl, cov, rollouts, rng=0)


# ---------------------------------------------------------------- set-up


def setup_into(w: Workload, seed: int, workdir: Path):
    """Write the workload's instances and, on an audit workload, its bundle.

    Runs in a fresh process so that its time includes importing drlqg.
    """
    for i in range(INSTANCES):
        system, amb, meta = generate_instance(w.n, w.n, w.n, w.n, instance_seed(seed, i), w.rho)
        dio.write_instance(str(workdir / f"inst-{i}.json"), system, amb, generator=meta)
    if w.audit_bundle:
        _, code, out = cli_call(solve_args(w, workdir / "inst-0.json", workdir / "bundle-setup"))
        if code != 0:
            raise RuntimeError(f"set-up solve exited {code}:\n{out}")


def timed_setups(w: Workload, seed: int, workdir: Path, repeats: int, before) -> list[float]:
    """Wall time of ``repeats`` set-ups, each in a fresh interpreter; calls
    ``before()`` ahead of each."""
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--setup-child",
        json.dumps(dataclasses.asdict(w)),
        "--seed",
        str(seed),
        "--workdir",
        str(workdir),
    ]
    times = []
    for _ in range(repeats):
        before()
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return times


# ---------------------------------------------------------------- metrics


def _median_ms(values: list[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(run: Run, untraced_solves: list[float]) -> dict[str, float]:
    spans = run.tracer.spans
    kids = child_index(spans)
    by_name: dict[str, list[float]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(duration(s))
    out = {m: _median_ms(by_name.get(span, [])) for m, (span, _) in LAYER_SPANS.items()}
    mc = by_name.get("lqg.monte_carlo_cost", [])
    out["lqg.rollout_us"] = 1e6 * statistics.median(mc) / run.w.rollouts if mc else 0.0
    solves = run.traced_solves
    if solves:
        first = solves[0]
        out["solver.iterations"] = first["iterations"]
        out["ambiguity.oracle_calls"] = len(first["bisections"])
        out["ambiguity.bisections_per_call"] = statistics.fmean(first["bisections"])
        out["io.bundle_bytes"] = first["bundle_bytes"]
        self_s = [solver_self_per_iter(kids, s) for s in solves]
        own = [self_time(kids, s["solve"]) for s in solves]
        out["solver.self_ms_per_iter"] = 1e3 * statistics.median(self_s)
        out["solver.accounted_share"] = statistics.median(
            (replayed_time(kids, s) + x * s["iterations"]) / o
            for s, x, o in zip(solves, self_s, own)
        )
        # the op span without the replay its solve's hook ran
        ops = [duration(s["op"]) - duration(s["solve"]) + o for s, o in zip(solves, own)]
        out["trace.overhead_ms"] = _median_ms(ops) - _median_ms(untraced_solves)
    else:
        # every traced solve failed; the failures are in cli.fail_ratio
        for m in PER_LAYER:
            out.setdefault(m, 0.0)
    out["cli.fail_ratio"] = len(run.failures) / max(run.attempted, 1)
    return out


def replayed_time(kids: dict[int, list[dict]], traced_solve: dict) -> float:
    """Summed duration of the phase calls replayed for one solve."""
    hooks = kids.get(traced_solve["solve"]["id"], []) + [traced_solve["tail"]]
    return sum(duration(c) for h in hooks for c in kids.get(h["id"], []))


def solver_self_per_iter(kids: dict[int, list[dict]], traced_solve: dict) -> float:
    """Seconds per iteration the Frank-Wolfe loop spends outside its phases.

    Iteration k > 0 spans, in the solver's own trace, the hook call of
    iteration k-1 and the phases of iteration k; the estimate is the median
    over k of that wall time minus the hook span and the replayed phases.
    """
    hooks = kids.get(traced_solve["solve"]["id"], [])
    rest = [
        wall - duration(prev) - sum(duration(c) for c in kids.get(hook["id"], []))
        for wall, prev, hook in zip(traced_solve["iteration_s"][1:], hooks, hooks[1:])
    ]
    return statistics.median(rest) if rest else 0.0


# ---------------------------------------------------------------- one run


def run(w: Workload, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS):
    """Run one workload and return (result dict, Run).

    The result holds ``correct``, ``attempted``, ``failed`` and ``metrics``:
    the end-to-end metrics untraced, the per-layer metrics traced.
    """
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=RUNS))
    try:
        r = Run(w, seed, workdir)
        r.setups = timed_setups(w, seed, workdir, setup_repeats, r.sample_speed)
        untraced_solves = []
        if trace:
            for i in range(INSTANCES):
                r.tracer.call(
                    "instances.generate_instance",
                    generate_instance, w.n, w.n, w.n, w.n, instance_seed(seed, i), w.rho,
                )
        start = time.perf_counter()
        cycle = 0
        while cycle == 0 or time.perf_counter() - start < seconds:
            i = cycle % INSTANCES
            if trace:
                untraced_solves.append(r.cli_solve(i))
                r.traced_solve(i)
                r.traced_verify()
                r.traced_evaluate()
            else:
                r.cli_solve(i)
                for _ in range(w.audits):
                    r.cli_verify()
                    r.cli_evaluate()
            cycle += 1
        if trace:
            metrics = layer_metrics(r, untraced_solves)
            units = PER_LAYER
        else:
            scale = KERNEL_REF_S / statistics.median(r.kernel_times)
            metrics = {
                "setup_s": scale * statistics.median(r.setups),
                "solve_s": scale * statistics.median(r.times["solve"]),
                "verify_s": scale * statistics.median(r.times["verify"]),
                "evaluate_s": scale * statistics.median(r.times["evaluate"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "pass_ratio": 1.0 - len(r.failures) / r.attempted,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not r.failures,
        "attempted": r.attempted,
        "failed": len(r.failures),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    return result, r


def write_spans(r: Run, machine: dict) -> Path:
    """Write the traced run's spans, relative to the first span's start."""
    t0 = r.tracer.spans[0]["start"] if r.tracer.spans else 0.0
    spans = [{**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in r.tracer.spans]
    path = RUNS / f"spans-{r.w.name}-seed{r.seed}.json"
    doc = {"workload": r.w.name, "seed": r.seed, "machine": machine, "spans": spans}
    path.write_text(json.dumps(doc) + "\n")
    return path


def record_reference():
    """Solve every instance of the default seed, 0, and store f and the gap."""
    doc = {}
    for w in WORKLOADS.values():
        entries = {}
        for i in range(INSTANCES):
            s = instance_seed(0, i)
            system, amb, _ = generate_instance(w.n, w.n, w.n, w.n, s, w.rho)
            sol = solve(system, amb, FWConfig(tol=TOL))
            entries[str(s)] = {"f": sol.f_value, "gap": sol.final_gap}
        doc[w.name] = entries
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
