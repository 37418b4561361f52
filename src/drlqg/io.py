"""On-disk formats: instance files, result bundles, iteration traces.

Documents are JSON with matrices as row-major nested arrays of decimal
literals; floats are emitted in shortest round-trip form (at most 17
significant digits), so ``parse(serialize(x)) == x`` bit-for-bit.  They are
written by a streaming encoder whose output is byte-identical to
``json.dump(doc, fh, indent=1)``: matrices stay numpy arrays until each row
is formatted, so no document's text or nested float list is built.  The
writer's time goes to the floats' ``repr`` (``_reprs``, the one place floats
are formatted) and little else: each row's reprs are joined once with the
row's separator, and one vectorised pass per matrix finds where each row's
trailing run of +0.0 begins, a run written without formatting, and whether
the matrix is finite; one that is not is written through ``json.dumps``,
which spells NaN and Infinity.  A square matrix that is finite and bitwise
symmetric, as every covariance and cost block is, is formatted from one repr
of its upper triangle, each entry once, and its rows are read off those
strings through an index cached per dimension.  A run of bitwise-equal
sibling matrices in a list, such as the stages of a time-invariant plant, is
formatted once and its text repeated; only the last matrix's text is kept.
The trace is CSV with header ``iter,f_value,surrogate_gap,elapsed_ms``,
exactly those four fields on every row, and floats printed with 17
significant digits.
Every write goes to a new temporary file beside its target, which then takes
the target's name.  A reader sees the old file or the new one, never a
partial file; the name is absent only between two back-to-back renames, and a
write that fails leaves the old file in place.  Nothing is fsynced, so what
survives a power loss is up to the file system.  Files get mode
``0o666 & ~umask``, as ``open()`` would give them.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import os
import stat
from io import StringIO

import numpy as np

from .ambiguity import AmbiguitySpec
from .lqg import CovarianceProfile, TimeVaryingSystem, _check_dims
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
    """The field ``path`` as a float array.  Its leaves must be numbers as
    ``_checked`` has them, which numpy's conversion of booleans and numeric
    strings is not; their types are scanned in one pass over the flattened
    rows, and the document is walked only to name a bad leaf."""
    node = _get(doc, path)
    try:
        arr = np.array(node, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"field '{path}' is not a numeric array: {exc}") from None
    leaves = [node]
    for _ in range(arr.ndim):
        leaves = itertools.chain.from_iterable(leaves)
    if not set(map(type, leaves)) <= {int, float}:
        for index in np.ndindex(arr.shape):
            leaf = node
            for i in index:
                leaf = leaf[i]
            _checked(leaf, float, path + "".join(f"[{i}]" for i in index))
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"field '{path}' contains non-finite entries")
    return arr


def _as_stages(doc, path: str) -> tuple:
    arr = _as_array(doc, path)
    if arr.ndim != 3:
        raise FormatError(f"field '{path}' is not a list of matrices (shape {arr.shape})")
    return tuple(arr)


def _profile_doc(cov: CovarianceProfile) -> dict:
    return {"X0": _mat(cov.X0), "W": [_mat(w) for w in cov.W], "V": [_mat(v) for v in cov.V]}


def _as_profile(doc, path: str) -> CovarianceProfile:
    """The profile of fields ``path``.X0, ``path``.W and ``path``.V."""
    X0 = _as_array(doc, f"{path}.X0")
    return CovarianceProfile(X0=X0, W=_as_stages(doc, f"{path}.W"), V=_as_stages(doc, f"{path}.V"))


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


def _is_file(path: str) -> bool:
    """Whether ``path`` names something other than a directory (a symlink is
    not followed, as ``rename`` does not follow it)."""
    try:
        return not stat.S_ISDIR(os.lstat(path).st_mode)
    except OSError:
        return False


def _atomic_write(path: str, write):
    """Call ``write(fh)`` on a new temporary file beside ``path``, then give
    it the name ``path`` without renaming it over an existing file.

    ext4 (``auto_da_alloc``) flushes a file's data when it is renamed over
    another one, tens of milliseconds per file, but not when it is renamed
    onto a free name.  So an existing non-directory ``path`` is first renamed
    aside, the temporary file takes the freed name, and last the old file is
    unlinked; if the second rename fails, the old file is renamed back.  The
    temporary file is ``.tmp-<token>-new-<name>``, created with ``O_EXCL``,
    and the aside name ``.tmp-<token>-old-<name>`` is derived from it, so no
    other write uses it.  An ``OSError`` is re-raised naming ``path``, not a
    temporary name.
    """
    directory, name = os.path.split(os.path.abspath(path))
    stem = os.path.join(directory, f".tmp-{os.urandom(8).hex()}-")
    new, old = stem + "new-" + name, stem + "old-" + name
    tmp = aside = None
    try:
        fd = os.open(new, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = new
        with os.fdopen(fd, "w") as fh:
            write(fh)
        if _is_file(path):
            os.rename(path, old)
            aside = old
        os.rename(tmp, path)
        tmp = None
        if aside is not None:
            os.unlink(aside)
    except BaseException as exc:
        if tmp is not None:
            if aside is not None:
                os.rename(aside, path)
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _reprs(values: np.ndarray):
    """The shortest round-trip reprs of a 1-D float64 array's items, as a lazy
    iterator: the one place floats are formatted."""
    return map(repr, values.tolist())


def _row(fh, values: np.ndarray, sep: str):
    """Write the reprs of a 1-D float64 array of finite items, ``sep`` between them."""
    fh.write(sep.join(_reprs(values)))


def _rows(fh, a: np.ndarray, level: int, between: str):
    """Write each row of a 2-D float64 array with at least one column as
    ``_encode`` writes a 1-D array at nesting depth ``level``, ``between``
    between the rows.

    One vectorised pass over the matrix finds where each row's trailing run
    of +0.0 (not -0.0, whose bits are not all zero) begins; that run is
    written without formatting.  A matrix with a NaN or an infinity is
    written through ``json.dumps``, which spells them NaN and Infinity.
    """
    pad = "\n" + " " * (level + 1)
    sep = "," + pad
    close = "\n" + " " * level + "]"
    if not np.isfinite(a).all():
        lines = ("[" + pad + sep.join(map(json.dumps, row)) + close for row in a.tolist())
        fh.write(between.join(lines))
        return
    width = a.shape[1]
    # where each row's trailing run of all-zero bits begins; argmax finds no
    # nonzero entry in a row of +0.0 alone, which is then formatted in full
    ends = width - np.argmax(a.view(np.int64)[:, ::-1] != 0, axis=1)
    zero = sep + "0.0"
    for i, (row, end) in enumerate(zip(a, ends.tolist())):
        fh.write((between if i else "") + "[" + pad)
        _row(fh, row[:end], sep)
        fh.write(zero * (width - end) + close)


@functools.cache
def _upper(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row and column indices of a d x d upper triangle, and the d x d
    index of each entry in that triangle's order, read across the diagonal."""
    rows, cols = np.triu_indices(d)
    index = np.empty((d, d), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(len(rows))
    for a in (rows, cols, index):
        a.flags.writeable = False
    return rows, cols, index


def _symmetric(fh, a, level: int) -> bool:
    """Write a square float64 matrix that is finite and bitwise equal to its
    transpose (so -0.0 does not mirror 0.0) as ``_encode`` would, from one
    repr of its upper triangle; return False, writing nothing, for anything
    else.  Each row's items are those strings, read across the diagonal.
    """
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 2):
        return False
    bits = a.view(np.int64)
    if not (a.shape[0] == a.shape[1] and np.array_equal(bits, bits.T) and np.isfinite(a).all()):
        return False
    rows, cols, index = _upper(len(a))
    items = np.array(list(_reprs(a[rows, cols])), dtype=object)
    pad = "\n" + " " * (level + 2)
    close = "\n" + " " * (level + 1) + "]"
    lines = ["[" + pad + ("," + pad).join(line) + close for line in items[index].tolist()]
    fh.write("[\n" + " " * (level + 1) + (",\n" + " " * (level + 1)).join(lines))
    fh.write("\n" + " " * level + "]")
    return True


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
        if _symmetric(fh, obj, level):
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
        float_rows = isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim <= 2
        if float_rows and obj.shape[-1]:  # a row, or a matrix of rows, with items
            if obj.ndim == 1:
                _rows(fh, obj[None], level, "")
                return
            fh.write("[" + pad)
            _rows(fh, obj, level + 1, sep)
            fh.write("\n" + " " * level + "]")
            return
        fh.write("[" + pad)
        # in a list or tuple, a float64 array bitwise equal to the last one
        # before it (same shape and bytes, so -0.0 is not 0.0) reuses its text
        reuse = not isinstance(obj, np.ndarray)
        key = text = None
        for i, item in enumerate(obj):
            if i:
                fh.write(sep)
            if reuse and isinstance(item, np.ndarray) and item.dtype == np.float64:
                bits = (item.shape, item.tobytes())
                if bits != key:
                    buf = StringIO()
                    _encode(buf, item, level + 1)
                    key, text = bits, buf.getvalue()
                fh.write(text)
            else:
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
            "nominal": _profile_doc(amb.nominal),
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
        nominal = _as_profile(doc, "ambiguity.nominal")
        try:
            _check_dims(sys, nominal)
        except ValueError as exc:
            raise FormatError(f"field 'ambiguity.nominal': {exc}") from None
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
    _atomic_write(path, lambda fh: fh.write("\n".join(lines) + "\n"))


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
        "covariance": _profile_doc(sol.worst_case),
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
        cov = _as_profile(doc, "covariance")
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
            "iterations": _scalar(doc, "iterations", int),
            "config": config,
        }
    return cov, meta


def read_controller(path: str) -> tuple[tuple, tuple, np.ndarray]:
    doc = _load_json(path)
    with _naming(path):
        _check_header(doc, CONTROLLER_FORMAT)
        return _as_stages(doc, "K"), _as_stages(doc, "L"), _as_array(doc, "U_output")
