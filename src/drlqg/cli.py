"""Command-line front end: generate / solve / evaluate / verify.

Exit codes: 0 success (and solver converged), 2 solver stopped at the
iteration cap, 3 invalid input (including unparsable arguments), 4
verification or consistency failure.
"""

from __future__ import annotations

import argparse
import os
import sys as _sys

import numpy as np

from . import io
from .instances import generate_instance
from .lqg import KalmanController, _check_dims, _check_gains, monte_carlo_cost
from .solver import FWConfig, RobustSolution, saddle_check, solve
from .stacked import (
    LinearOutputController,
    _check_causal,
    build_stacked,
    controller_cost_trace,
    output_to_purified,
    unroll_controller,
)

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_BAD_INPUT = 3
EXIT_VERIFY_FAILED = 4


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with ``EXIT_BAD_INPUT``.

    argparse's own status 2 would read as ``EXIT_NOT_CONVERGED``.
    """

    def error(self, message):
        self.print_usage(_sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="drlqg",
        description="Distributionally robust LQG: worst-case noise via Frank-Wolfe.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a seeded benchmark instance")
    g.add_argument("--n", type=int, required=True, help="state dimension")
    g.add_argument("--m", type=int, required=True, help="input dimension")
    g.add_argument("--p", type=int, required=True, help="observation dimension")
    g.add_argument("--T", type=int, required=True, help="horizon")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--rho", type=float, default=0.1, help="radius for every block")
    g.add_argument("--out", required=True, help="instance file to write")

    s = sub.add_parser("solve", help="solve an instance and write a result bundle")
    s.add_argument("instance")
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--tol", type=float, default=1e-3, help="surrogate-gap stopping threshold")
    s.add_argument("--delta", type=float, default=0.95, help="oracle accuracy in (0,1)")
    s.add_argument("--max-iter", type=int, default=1000)

    e = sub.add_parser("evaluate", help="evaluate a stored controller under a noise model")
    e.add_argument("instance")
    e.add_argument("controller", help="controller.json from a result bundle")
    e.add_argument("covariance", help="worst_case.json-format noise model")
    e.add_argument("--rollouts", type=int, default=100000)
    e.add_argument("--seed", type=int, default=0)

    v = sub.add_parser("verify", help="audit a result bundle against its instance")
    v.add_argument("instance")
    v.add_argument("result_dir")
    v.add_argument("--samples", type=int, default=100, help="random nature-side profiles")
    v.add_argument("--seed", type=int, default=0)
    return ap


def _cmd_generate(args) -> int:
    system, amb, meta = generate_instance(
        n=args.n, m=args.m, p=args.p, T=args.T, seed=args.seed, rho=args.rho
    )
    io.write_instance(args.out, system, amb, generator=meta)
    print(f"wrote {args.out} (n={args.n} m={args.m} p={args.p} T={args.T} rho={args.rho})")
    return EXIT_OK


def _cmd_solve(args) -> int:
    system, amb, _ = io.read_instance(args.instance)
    # an exact line search, which needs far fewer iterations than the open-loop default
    cfg = FWConfig(delta=args.delta, tol=args.tol, max_iter=args.max_iter, step="line")
    sol = solve(system, amb, cfg)
    gain = unroll_controller(system, sol.controller)
    io.write_result_bundle(args.out, sol, gain.U)
    status = "converged" if sol.converged else "NOT converged"
    print(
        f"{status} after {len(sol.trace)} iterations: "
        f"f={sol.f_value:.10g} gap={sol.final_gap:.3e}"
    )
    print(f"result bundle written to {args.out}")
    return EXIT_OK if sol.converged else EXIT_NOT_CONVERGED


def _read_stored(system, controller_path: str, covariance_path: str):
    """(controller, U_output, noise model, its metadata), checked against ``system``.

    A stage count or shape that does not fit, or a non-causal U_output,
    raises ``FormatError`` naming the file and the field before any use.
    """
    cov, meta = io.read_worst_case(covariance_path)
    K, L, U_out = io.read_controller(controller_path)
    with io._naming(covariance_path):
        _check_dims(system, cov)
    with io._naming(controller_path):
        K, L = _check_gains(system, K, L)
        _check_causal(U_out, system.m, system.p, system.T, "U_output")
    return KalmanController(K=K, L=L), U_out, cov, meta


def _cmd_evaluate(args) -> int:
    if args.rollouts < 2:
        raise ValueError(f"--rollouts must be at least 2, got {args.rollouts}")
    system, _, _ = io.read_instance(args.instance)
    ctrl, U_out, cov, _ = _read_stored(system, args.controller, args.covariance)
    st = build_stacked(system)
    out_ctrl = LinearOutputController(
        U=U_out, q=np.zeros(system.m * system.T), m=system.m, p=system.p, T=system.T
    )
    exact = controller_cost_trace(st, output_to_purified(out_ctrl, st), cov)
    try:
        stats = monte_carlo_cost(system, ctrl, cov, n_samples=args.rollouts, rng=args.seed)
    except MemoryError as exc:  # the one cost per rollout does not fit
        raise ValueError(
            f"--rollouts {args.rollouts} needs more memory than is available ({exc})"
        ) from exc
    print(f"exact cost      : {exact:.10g}")
    print(f"monte carlo mean: {stats.mean:.10g} +/- {stats.stderr:.4g} (n={stats.n_samples})")
    dev = abs(stats.mean - exact)
    if dev > 3.0 * stats.stderr:
        print(f"DISAGREEMENT: |mean - exact| = {dev:.4g} exceeds 3 SE = {3 * stats.stderr:.4g}")
        return EXIT_VERIFY_FAILED
    print(f"agreement within 3 SE (|mean - exact| = {dev:.4g})")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be non-negative, got {args.samples}")
    system, amb, _ = io.read_instance(args.instance)
    stored, U_out, cov, meta = _read_stored(
        system,
        os.path.join(args.result_dir, "controller.json"),
        os.path.join(args.result_dir, "worst_case.json"),
    )
    trace = io.read_trace_csv(os.path.join(args.result_dir, "trace.csv"))
    failures = []

    ks = [rec.k for rec in trace]
    if not ks:
        failures.append("trace.csv holds no iterations")
    elif ks != sorted(set(ks)):
        failures.append("trace iteration indices are not strictly increasing")
    scale = max(1.0, abs(meta["f_value"]))
    for rec in trace:
        if rec.surrogate_gap < -1e-9 * scale:
            failures.append(f"negative surrogate gap {rec.surrogate_gap:.3e} at iter {rec.k}")

    cfg = meta["config"]
    if meta["converged"] != (meta["final_gap"] <= cfg.tol):
        failures.append(
            f"converged={meta['converged']} disagrees with final gap "
            f"{meta['final_gap']:.3e} against tol {cfg.tol:.3e}"
        )
    if trace:
        best = min(trace, key=lambda rec: rec.surrogate_gap)  # the first minimum, as solve keeps
        if (best.surrogate_gap, best.f_value) != (meta["final_gap"], meta["f_value"]):
            failures.append(
                f"final gap and value do not match the minimum-gap trace row (iter {best.k})"
            )

    sol = RobustSolution(
        worst_case=cov,
        controller=stored,
        trace=trace,
        final_gap=meta["final_gap"],
        f_value=meta["f_value"],
        converged=meta["converged"],
        config=cfg,
    )
    report = saddle_check(system, amb, sol, n_samples=args.samples, seed=args.seed)
    failures.extend(report.claim_violations)
    if np.max(np.abs(unroll_controller(system, stored).U - U_out)) > 1e-8:
        failures.append("stored unrolled gain does not match recomputation")
    for label, cost, excess in report.nature_violations:
        failures.append(
            f"nature-side violation ({label}): cost {cost:.10g} exceeds "
            f"f + slack by {excess:.4g}"
        )
    for label, cost, shortfall in report.controller_violations:
        failures.append(
            f"controller-side violation ({label}): cost {cost:.10g} undercuts f by {shortfall:.4g}"
        )

    if failures:
        print(f"verification FAILED ({len(failures)} finding(s)):")
        for f in failures:
            print(f"  - {f}")
        return EXIT_VERIFY_FAILED
    print(
        f"verification passed: feasible worst case, value confirmed, saddle audit clean "
        f"({report.n_samples} nature samples, exact controller certificate)"
    )
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (EXIT_BAD_INPUT)
        return exc.code
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (io.FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_BAD_INPUT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
