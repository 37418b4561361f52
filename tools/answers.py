"""Same answers: a manifest of what the CLI prints and writes on the benchmark instances.

Usage (from the repository root):

    python3 tools/answers.py run TREE [--out MANIFEST]
    python3 tools/answers.py diff OLD NEW

``run`` takes the workloads of ``perfbench/harness.py`` -- eight seed-0
instances each, 24 in all -- and, with the ``drlqg`` in ``TREE/src``, runs
``generate``, ``solve --tol 1e-4``, ``verify --samples`` and ``evaluate
--rollouts`` at each workload's values, every command in a fresh process in
a scratch directory.  The manifest (JSON, to ``--out`` or stdout) holds for
each instance and command the exit code, the SHA-256 of stdout, of stderr
and of every file the command wrote -- ``trace.csv`` without its wall-clock
``elapsed_ms`` column -- and, in clear, f, the iteration count and the final
gap of the solve.

``diff`` prints one line per entry that moved between two manifests and
exits 1 when any did, 0 when they are the same.
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

from harness import INSTANCES, WORKLOADS, instance_seed, solve_args  # noqa: E402

SEED = 0
# the drlqg console script, with the sources of the tree under test first on the path
_MAIN = "import sys; sys.path.insert(0, sys.argv.pop(1)); from drlqg.cli import main; sys.exit(main())"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: Path) -> str:
    """SHA-256 of a written file; a trace is hashed without its timing column."""
    data = path.read_bytes()
    if path.name == "trace.csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        keep = [i for i, name in enumerate(rows[0]) if name != "elapsed_ms"] if rows else []
        data = "\n".join(",".join(row[i] for i in keep) for row in rows).encode()
    return _sha(data)


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
        "stdout": _sha(proc.stdout),
        "stderr": _sha(proc.stderr),
        "files": {name: sha for name, sha in after.items() if before.get(name) != sha},
    }
    return record, after


def _solution(bundle: Path) -> dict:
    """f, the iteration count and the final gap of a solve, as written."""
    try:
        meta = json.loads((bundle / "worst_case.json").read_text())
    except (OSError, ValueError):
        return {}
    return {key: meta.get(key) for key in ("f_value", "iterations", "final_gap")}


def instance_answers(src: Path, workdir: Path, w, seed: int) -> dict:
    """The answers of one instance of workload ``w``, run in the empty ``workdir``."""
    inst, bundle = Path("inst.json"), Path("bundle")
    size = [f"--{flag}={w.n}" for flag in ("n", "m", "p", "T")]
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


def manifest(tree: Path) -> dict:
    src = (tree / "src").resolve()
    if not (src / "drlqg").is_dir():
        raise SystemExit(f"{tree}: no drlqg sources under src/")
    answers = {}
    for w in WORKLOADS.values():
        for i in range(INSTANCES):
            seed = instance_seed(SEED, i)
            with tempfile.TemporaryDirectory() as tmp:
                answers[f"{w.name}/{seed}"] = instance_answers(src, Path(tmp), w, seed)
    return {"format": 1, "instances": answers}


def differences(old, new, path: str = "") -> list[str]:
    """One line per leaf that differs between two manifests (or is in one only)."""
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
    moved = differences(*(json.loads(p.read_text()) for p in (args.old, args.new)))
    for line in moved:
        print(line)
    print(f"{len(moved)} difference(s) between {args.old} and {args.new}")
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
