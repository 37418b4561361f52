"""drlqg benchmark: one workload, end-to-end metrics or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-small --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in this
directory for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads():
    """Cap the BLAS thread count at the number of usable cores.

    Must run before numpy is imported; set-up processes inherit the cap.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    ap.add_argument(
        "--record-reference",
        action="store_true",
        help="re-solve the default seed's instances and rewrite reference.json",
    )
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "drlqg" / "__init__.py").is_file():
        print(f"error: no drlqg sources at {src}", file=sys.stderr)
        return 2
    cap_blas_threads()
    import harness

    if Path(harness.drlqg.__file__).resolve().parent != (src / "drlqg").resolve():
        print(f"error: drlqg was imported from {harness.drlqg.__file__}", file=sys.stderr)
        return 2

    if args.setup_child:
        w = harness.Workload(**json.loads(args.setup_child))
        harness.setup_into(w, args.seed, Path(args.workdir))
        return 0
    if args.record_reference:
        harness.record_reference()
        return 0
    if args.workload not in harness.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")

    machine = harness.machine_info()
    print("machine", json.dumps(machine))
    w = harness.WORKLOADS[args.workload]
    result, r = harness.run(w, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        print("spans", harness.write_spans(r, machine))
    report(result, r)
    return 0


def report(result: dict, r) -> None:
    """Print failures, sample counts and every metric with its unit, then the
    result object as the last line."""
    for failure in r.failures:
        print("FAILED", failure)
    print(f"workload {r.w.name} seed {r.seed}")
    for kind, values in {"setup": r.setups, **r.times, "speed kernel": r.kernel_times}.items():
        print(f"  {kind}: n={len(values)} wall s=[{', '.join(f'{v:.4f}' for v in values)}]")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    raise SystemExit(main())
