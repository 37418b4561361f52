"""On-disk formats: instance files, result bundles, iteration traces.

Documents are JSON with matrices as row-major nested arrays of decimal
literals; floats are emitted in shortest round-trip form (at most 17
significant digits), so ``parse(serialize(x)) == x`` bit-for-bit.  They are
written row by row by a streaming encoder whose output is byte-identical to
``json.dump(doc, fh, indent=1)``: matrices stay numpy arrays until each row
is formatted, so no document's text or nested float list is built.  The trace
is CSV with header ``iter,f_value,surrogate_gap,elapsed_ms``, exactly those
four fields on every row, and floats printed with 17 significant digits.
All writes go through a temporary file in the target directory followed by
an atomic rename.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import tempfile

import numpy as np

from .ambiguity import AmbiguitySpec
from .lqg import CovarianceProfile, TimeVaryingSystem
from .solver import FWConfig, FWIteration, RobustSolution

INSTANCE_FORMAT = "drlqg-instance"
WORST_CASE_FORMAT = "drlqg-worst-case"
CONTROLLER_FORMAT = "drlqg-controller"
FORMAT_VERSION = 1
TRACE_HEADER = ("iter", "f_value", "surrogate_gap", "elapsed_ms")


class FormatError(ValueError):
    """A document failed schema validation; the message names the field."""


def _mat(a) -> np.ndarray:
    return np.asarray(a, dtype=float)


def _get(doc: dict, path: str):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise FormatError(f"missing field '{path}'")
        node = node[part]
    return node


# what a scalar field of each Python type must hold in JSON
_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"), bool: (bool, "a boolean")}


def _checked(value, kind, path: str):
    """Return ``kind(value)`` if ``value`` is a JSON value of that kind, else
    raise a ``FormatError`` naming ``path``; a boolean is not a number."""
    types, what = _SCALARS[kind]
    if not isinstance(value, types) or isinstance(value, bool) != (kind is bool):
        text = json.dumps(value)
        text = text if len(text) <= 40 else text[:37] + "..."
        raise FormatError(f"field '{path}' must be {what}, got {text}")
    return kind(value)


def _scalar(doc, path: str, kind):
    return _checked(_get(doc, path), kind, path)


def _finite(doc, path: str) -> float:
    value = _scalar(doc, path, float)
    if not math.isfinite(value):
        raise FormatError(f"field '{path}' must be finite, got {json.dumps(value)}")
    return value


def _numbers(doc, path: str) -> tuple:
    values = _get(doc, path)
    if not isinstance(values, list):
        raise FormatError(f"field '{path}' must be a list of numbers")
    return tuple(_checked(v, float, f"{path}[{i}]") for i, v in enumerate(values))


def _as_array(doc, path: str) -> np.ndarray:
    try:
        arr = np.array(_get(doc, path), dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"field '{path}' is not a numeric array: {exc}") from None
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"field '{path}' contains non-finite entries")
    return arr


def _as_stages(doc, path: str) -> tuple:
    arr = _as_array(doc, path)
    if arr.ndim != 3:
        raise FormatError(f"field '{path}' is not a list of matrices (shape {arr.shape})")
    return tuple(arr)


def _check_header(doc, fmt: str):
    """Require ``format`` to be ``fmt`` and ``version`` to be ``FORMAT_VERSION``."""
    if _get(doc, "format") != fmt:
        raise FormatError(f"field 'format' must be '{fmt}'")
    version = _scalar(doc, "version", int)
    if version != FORMAT_VERSION:
        raise FormatError(f"field 'version' must be {FORMAT_VERSION}, got {version}")


@contextlib.contextmanager
def _naming(path: str):
    """Re-raise a ``ValueError`` from reading a document as a ``FormatError`` naming ``path``."""
    try:
        yield
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _atomic_write(path: str, write):
    """Call ``write(fh)`` on a temporary file, then rename it onto ``path``.

    An ``OSError`` is re-raised naming ``path``, not the temporary file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
        with os.fdopen(fd, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _atomic_write_text(path: str, text: str):
    _atomic_write(path, lambda fh: fh.write(text))


def _row(fh, row: np.ndarray, sep: str):
    """Write the items of a non-empty 1-D float64 array, ``sep`` between them.

    A trailing run of +0.0 (not -0.0) is written without formatting, and a
    float repr never contains ", ", so one ``replace`` separates the rest.
    """
    end = len(row)
    if row[-1] == 0.0:
        nonzero = np.flatnonzero((row != 0.0) | np.signbit(row))
        end = int(nonzero[-1]) + 1 if nonzero.size else 0
    text = repr(row[:end].tolist())
    if "n" in text:  # nan or inf, which json spells NaN and Infinity
        fh.write(sep.join(map(json.dumps, row.tolist())))
        return
    fh.write(text[1:-1].replace(", ", sep))
    if end < len(row):
        fh.write((sep if end else "") + sep.join(["0.0"] * (len(row) - end)))


def _encode(fh, obj, level: int = 0):
    """Write ``obj`` exactly as ``json.dump(obj, fh, indent=1)`` would at
    nesting depth ``level``, reading numpy arrays and scalars as their
    ``tolist()``.  Dict keys must be strings."""
    if isinstance(obj, (np.generic, np.ndarray)) and obj.ndim == 0:
        obj = obj.item()
    if isinstance(obj, (dict, list, tuple, np.ndarray)):
        if len(obj) == 0:
            fh.write("{}" if isinstance(obj, dict) else "[]")
            return
        pad = "\n" + " " * (level + 1)
        sep = "," + pad
        if isinstance(obj, dict):
            fh.write("{")
            for i, (key, value) in enumerate(obj.items()):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                fh.write(f"{sep if i else pad}{json.dumps(key)}: ")
                _encode(fh, value, level + 1)
            fh.write("\n" + " " * level + "}")
            return
        fh.write("[" + pad)
        if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64:
            _row(fh, obj, sep)
        else:
            for i, item in enumerate(obj):
                if i:
                    fh.write(sep)
                _encode(fh, item, level + 1)
        fh.write("\n" + " " * level + "]")
    else:
        fh.write(json.dumps(obj))


def write_json_atomic(path: str, doc: dict):
    """Write ``doc`` and a newline, byte-identical to ``json.dump(doc, fh,
    indent=1)``; matrices stream to the file a row at a time."""

    def dump(fh):
        _encode(fh, doc)
        fh.write("\n")

    _atomic_write(path, dump)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from None


def write_instance(path: str, sys: TimeVaryingSystem, amb: AmbiguitySpec, generator=None):
    doc = {
        "format": INSTANCE_FORMAT,
        "version": FORMAT_VERSION,
        "dims": {"n": sys.n, "m": sys.m, "p": sys.p, "T": sys.T},
        "system": {
            "A": [_mat(a) for a in sys.A],
            "B": [_mat(b) for b in sys.B],
            "C": [_mat(c) for c in sys.C],
            "Q": [_mat(q) for q in sys.Q],
            "R": [_mat(r) for r in sys.R],
        },
        "ambiguity": {
            "rho_x0": amb.rho_x0,
            "rho_w": list(amb.rho_w),
            "rho_v": list(amb.rho_v),
            "nominal": {
                "X0": _mat(amb.nominal.X0),
                "W": [_mat(w) for w in amb.nominal.W],
                "V": [_mat(v) for v in amb.nominal.V],
            },
        },
    }
    if generator is not None:
        doc["generator"] = generator
    write_json_atomic(path, doc)


def read_instance(path: str) -> tuple[TimeVaryingSystem, AmbiguitySpec, dict]:
    doc = _load_json(path)
    with _naming(path):
        _check_header(doc, INSTANCE_FORMAT)
        dims = {k: _scalar(doc, f"dims.{k}", int) for k in ("n", "m", "p", "T")}
        sys = TimeVaryingSystem(
            A=_as_stages(doc, "system.A"),
            B=_as_stages(doc, "system.B"),
            C=_as_stages(doc, "system.C"),
            Q=_as_stages(doc, "system.Q"),
            R=_as_stages(doc, "system.R"),
        )
        nominal = CovarianceProfile(
            X0=_as_array(doc, "ambiguity.nominal.X0"),
            W=_as_stages(doc, "ambiguity.nominal.W"),
            V=_as_stages(doc, "ambiguity.nominal.V"),
        )
        amb = AmbiguitySpec(
            nominal=nominal,
            rho_x0=_scalar(doc, "ambiguity.rho_x0", float),
            rho_w=_numbers(doc, "ambiguity.rho_w"),
            rho_v=_numbers(doc, "ambiguity.rho_v"),
        )
        if (sys.n, sys.m, sys.p, sys.T) != (dims["n"], dims["m"], dims["p"], dims["T"]):
            raise FormatError("field 'dims' disagrees with the system matrices")
    return sys, amb, doc.get("generator", {})


def write_trace_csv(path: str, trace):
    lines = [",".join(TRACE_HEADER)]
    for rec in trace:
        lines.append(
            f"{rec.k},{rec.f_value:.17g},{rec.surrogate_gap:.17g},{rec.wall_time * 1e3:.17g}"
        )
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_trace_csv(path: str) -> tuple[FWIteration, ...]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != TRACE_HEADER:
        raise FormatError(f"{path}: trace header must be {','.join(TRACE_HEADER)}")
    out = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(TRACE_HEADER):
            raise FormatError(
                f"{path}: line {i}: expected {len(TRACE_HEADER)} fields, got {len(row)}"
            )
        try:
            k = int(row[0])
            f_value, gap, elapsed_ms = (float(x) for x in row[1:])
        except ValueError as exc:
            raise FormatError(f"{path}: bad trace row at line {i}: {exc}") from None
        for name, value in zip(TRACE_HEADER[1:], (f_value, gap, elapsed_ms)):
            if not np.isfinite(value):
                raise FormatError(f"{path}: line {i}: column '{name}' is not finite ({value})")
        out.append(FWIteration(k=k, f_value=f_value, surrogate_gap=gap, wall_time=elapsed_ms / 1e3))
    return tuple(out)


def write_result_bundle(out_dir: str, sol: RobustSolution, controller_gain: np.ndarray):
    """Write worst_case.json, controller.json and trace.csv into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = sol.config
    worst = {
        "format": WORST_CASE_FORMAT,
        "version": FORMAT_VERSION,
        "f_value": sol.f_value,
        "final_gap": sol.final_gap,
        "converged": sol.converged,
        "iterations": len(sol.trace),
        "config": {
            "delta": cfg.delta,
            "tol": cfg.tol,
            "max_iter": cfg.max_iter,
            "step": cfg.step,
        },
        "covariance": {
            "X0": _mat(sol.worst_case.X0),
            "W": [_mat(w) for w in sol.worst_case.W],
            "V": [_mat(v) for v in sol.worst_case.V],
        },
    }
    write_json_atomic(os.path.join(out_dir, "worst_case.json"), worst)
    ctrl = {
        "format": CONTROLLER_FORMAT,
        "version": FORMAT_VERSION,
        "K": [_mat(k) for k in sol.controller.K],
        "L": [_mat(l) for l in sol.controller.L],
        "U_output": _mat(controller_gain),
    }
    write_json_atomic(os.path.join(out_dir, "controller.json"), ctrl)
    write_trace_csv(os.path.join(out_dir, "trace.csv"), sol.trace)


def read_worst_case(path: str) -> tuple[CovarianceProfile, dict]:
    doc = _load_json(path)
    with _naming(path):
        _check_header(doc, WORST_CASE_FORMAT)
        cov = CovarianceProfile(
            X0=_as_array(doc, "covariance.X0"),
            W=_as_stages(doc, "covariance.W"),
            V=_as_stages(doc, "covariance.V"),
        )
        knobs = dict(
            delta=_finite(doc, "config.delta"),
            tol=_finite(doc, "config.tol"),
            max_iter=_scalar(doc, "config.max_iter", int),
            # bundles written before the step rule was recorded used open-loop
            step=_get(doc, "config").get("step", "open-loop"),
        )
        try:
            config = FWConfig(**knobs)
        except ValueError as exc:  # its messages start with the field name
            raise FormatError(f"config.{exc}") from None
        meta = {
            "f_value": _finite(doc, "f_value"),
            "final_gap": _finite(doc, "final_gap"),
            "converged": _scalar(doc, "converged", bool),
            "config": config,
        }
    return cov, meta


def read_controller(path: str) -> tuple[tuple, tuple, np.ndarray]:
    doc = _load_json(path)
    with _naming(path):
        _check_header(doc, CONTROLLER_FORMAT)
        return _as_stages(doc, "K"), _as_stages(doc, "L"), _as_array(doc, "U_output")
