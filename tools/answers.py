"""Same answers: a manifest of what the CLI prints and writes on the benchmark instances.

Usage (from the repository root):

    python3 tools/answers.py run TREE [--out MANIFEST]
    python3 tools/answers.py diff OLD NEW

``run`` takes the workloads of ``perfbench/harness.py`` -- eight seed-0
instances each, 24 in all -- and six rectangular instances, keyed
``rect-<n>x<m>x<p>x<T>/<seed>``: (n, m, p, T) = (3, 2, 4, 3), (4, 3, 2, 1) and
(2, 1, 3, 5) at seeds 0 and 1, with rho 0.5, ``--samples 10`` and
``--rollouts 2000``.  The benchmark's instances are all square, so a mix-up
of n, m and p, or of a one-stage horizon, would show only in these.  With
the ``drlqg`` in ``TREE/src`` it runs ``generate``, ``solve --tol 1e-4``,
``verify --samples`` and ``evaluate --rollouts`` at each instance's values,
every command in a fresh process in a scratch directory.  The manifest
(JSON, to ``--out`` or stdout) holds for each instance and command the exit
code, the lines of stdout and of stderr as text, the SHA-256 of every file
the command wrote -- ``trace.csv`` without its wall-clock ``elapsed_ms``
column -- and, in clear, f, the iteration count, the final gap and the
oracle accuracy delta of the solve.

``diff`` prints one line per entry that moved between two manifests: a
printed line that moved shows as ``old -> new``, keyed by its index.  For
each instance whose f moved it also prints whether the new f lies in the
certified Frank-Wolfe bracket f_ref +/- max(g_ref, g)/delta around the
instance's entry in ``perfbench/reference.json``, as the benchmark checks a
solve; a rectangular instance has no entry there, and ``diff`` says so.
It exits 0 when the manifests are the same, 2 when an f lies outside its
bracket, and 1 when they differ otherwise.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from harness import (  # noqa: E402
    INSTANCES, REFERENCE, WORKLOADS, Workload, instance_seed, solve_args,
)

SEED = 0
RECTANGULAR = ((3, 2, 4, 3), (4, 3, 2, 1), (2, 1, 3, 5))  # (n, m, p, T)
RECTANGULAR_SEEDS = (0, 1)
# the drlqg console script, with the sources of the tree under test first on the path
_MAIN = "import sys; sys.path.insert(0, sys.argv.pop(1)); from drlqg.cli import main; sys.exit(main())"


def _file_sha(path: Path) -> str:
    """SHA-256 of a written file; a trace is hashed without its timing column."""
    data = path.read_bytes()
    if path.name == "trace.csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        keep = [i for i, name in enumerate(rows[0]) if name != "elapsed_ms"] if rows else []
        data = "\n".join(",".join(row[i] for i in keep) for row in rows).encode()
    return hashlib.sha256(data).hexdigest()


def _files(workdir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(workdir)): _file_sha(p)
        for p in sorted(workdir.rglob("*"))
        if p.is_file()
    }


def _command(src: Path, workdir: Path, args: list[str], before: dict) -> tuple[dict, dict]:
    """Run one drlqg command in ``workdir``: its record, and the files after it."""
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN, str(src), *args], cwd=workdir, capture_output=True
    )
    after = _files(workdir)
    record = {
        "exit": proc.returncode,
        "stdout": proc.stdout.decode().splitlines(keepends=True),
        "stderr": proc.stderr.decode().splitlines(keepends=True),
        "files": {name: sha for name, sha in after.items() if before.get(name) != sha},
    }
    return record, after


def _solution(bundle: Path) -> dict:
    """f, the iteration count, the final gap and delta of a solve, as written."""
    try:
        meta = json.loads((bundle / "worst_case.json").read_text())
    except (OSError, ValueError):
        return {}
    out = {key: meta.get(key) for key in ("f_value", "iterations", "final_gap")}
    return {**out, "delta": meta.get("config", {}).get("delta")}


def instance_answers(src: Path, workdir: Path, w, seed: int, dims: tuple) -> dict:
    """The answers of one instance of workload ``w`` at ``dims`` = (n, m, p, T),
    run in the empty ``workdir``."""
    inst, bundle = Path("inst.json"), Path("bundle")
    size = [f"--{flag}={d}" for flag, d in zip(("n", "m", "p", "T"), dims)]
    commands = {
        "generate": ["generate", *size, f"--seed={seed}", f"--rho={w.rho!r}", f"--out={inst}"],
        "solve": solve_args(w, inst, bundle),
        "verify": ["verify", str(inst), str(bundle), "--samples", str(w.samples)],
        "evaluate": [
            "evaluate", str(inst), str(bundle / "controller.json"),
            str(bundle / "worst_case.json"), "--rollouts", str(w.rollouts),
        ],
    }
    out, files = {}, {}
    for name, args in commands.items():
        out[name], files = _command(src, workdir, args, files)
    return {**_solution(workdir / bundle), **out}


def instances():
    """(key, workload, seed, dims) of every instance of a manifest, in its order."""
    for w in WORKLOADS.values():
        for i in range(INSTANCES):
            seed = instance_seed(SEED, i)
            yield f"{w.name}/{seed}", w, seed, (w.n,) * 4
    for dims in RECTANGULAR:
        name = "rect-" + "x".join(map(str, dims))
        w = Workload(name, n=dims[0], rho=0.5, samples=10, rollouts=2000)
        for seed in RECTANGULAR_SEEDS:
            yield f"{name}/{seed}", w, seed, dims


def manifest(tree: Path) -> dict:
    src = (tree / "src").resolve()
    if not (src / "drlqg").is_dir():
        raise SystemExit(f"{tree}: no drlqg sources under src/")
    answers = {}
    for key, w, seed, dims in instances():
        with tempfile.TemporaryDirectory() as tmp:
            answers[key] = instance_answers(src, Path(tmp), w, seed, dims)
    return {"format": 2, "instances": answers}


def differences(old, new, path: str = "") -> list[str]:
    """One line per leaf that differs between two manifests (or is in one only);
    a list, such as the lines of a command's stdout, is compared item by item."""
    if isinstance(old, list) and isinstance(new, list):
        old, new = dict(enumerate(old)), dict(enumerate(new))
    if isinstance(old, dict) and isinstance(new, dict):
        lines = []
        for key in sorted(old.keys() | new.keys()):
            where = f"{path}.{key}" if path else key
            if key not in new:
                lines.append(f"{where}: only in the old manifest")
            elif key not in old:
                lines.append(f"{where}: only in the new manifest")
            else:
                lines.extend(differences(old[key], new[key], where))
        return lines
    if old == new:
        return []
    moved = f"{path}: {old!r} -> {new!r}"
    if all(type(v) is float for v in (old, new)):  # f and the gap: by how much
        moved += f" ({new - old:+.3e})"
    return [moved]


def brackets(old, new, reference: dict) -> list[tuple[str, bool | None]]:
    """For each instance whose f moved between manifests ``old`` and ``new``:
    a line saying whether its new f lies in the certified bracket
    f_ref +/- max(g_ref, g)/delta of ``reference`` (``reference.json``'s
    workload -> seed -> {"f", "gap"}), and True or False; None when the
    instance has no bracket or the new solve wrote no f."""
    out = []
    for key, entry in sorted(new["instances"].items()):
        f = entry.get("f_value")
        if f == old["instances"].get(key, {}).get("f_value"):
            continue
        where = f"instances.{key}.f_value"
        workload, seed = key.rsplit("/", 1)
        ref = reference.get(workload, {}).get(seed)
        g, delta = entry.get("final_gap"), entry.get("delta")
        if ref is None or not all(type(v) is float for v in (f, g, delta)):
            out.append((f"{where}: {f!r} has no certified bracket to lie in", None))
            continue
        width = max(ref["gap"], g) / delta
        inside = abs(f - ref["f"]) <= width
        verdict = "lies inside" if inside else "lies OUTSIDE"
        out.append((f"{where}: {f!r} {verdict} its bracket {ref['f']!r} +/- {width:.3e}", inside))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="write the manifest of the drlqg in TREE/src")
    r.add_argument("tree", type=Path)
    r.add_argument("--out", type=Path, help="manifest file (default: stdout)")
    d = sub.add_parser("diff", help="list what moved between two manifests")
    d.add_argument("old", type=Path)
    d.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    if args.command == "run":
        text = json.dumps(manifest(args.tree), indent=1, sort_keys=True) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            args.out.write_text(text)
        return 0
    old, new = (json.loads(p.read_text()) for p in (args.old, args.new))
    moved = differences(old, new)
    checked = brackets(old, new, json.loads(REFERENCE.read_text()))
    for line in moved + [line for line, _ in checked]:
        print(line)
    print(f"{len(moved)} difference(s) between {args.old} and {args.new}")
    outside = sum(inside is False for _, inside in checked)
    if outside:
        print(f"{outside} f value(s) outside their certified bracket")
    return 2 if outside else 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
