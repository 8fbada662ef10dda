"""Output checks: sweep files, ``verify`` reports and values against the reference.

Each check raises ``CheckError`` with the worst offending row.  Tolerances
are combined absolute/relative: |got - ref| <= tol * max(1, |ref|).
"""

import hashlib
import json
import math
import re

import numpy as np

#: Why each tolerance has its size is given in README.md.
TOL = {
    "log_negativity": 1e-11,
    "fidelity": 1e-12,
    "fidelity_difference": 1e-12,
    "bell": 1e-12,
    "maximize": 1e-12,
    "quadrature": 1e-9,
    "schmidt": 1e-9,
    "norm": 1e-12,
}
EDGE_MASS_MAX = 1e-6

_VERIFY_LINE = re.compile(
    r"^check (\S+)\s+max deviation (\S+)\s+\(tolerance (\S+)\)\s+(PASS|FAIL)$"
)
VERIFY_CHECKS = 6


class CheckError(Exception):
    """An output of the program disagrees with the reference or a required property."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


def close(label, got, ref, tol):
    """Every |got - ref| within tol * max(1, |ref|); NaN in ``got`` fails."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    require(got.shape == ref.shape, f"{label}: shape {got.shape} != reference {ref.shape}")
    excess = np.abs(got - ref) - tol * np.maximum(1.0, np.abs(ref))
    excess = np.where(np.isnan(excess), np.inf, excess)
    k = int(np.argmax(excess))
    require(
        excess.flat[k] <= 0.0,
        f"{label}: row {k} value {got.flat[k]!r} vs reference {ref.flat[k]!r} (tol {tol:g})",
    )


def digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _blank_to_nan(text):
    return float(text) if text else math.nan


def read_csv(path):
    """(metadata dict, column names, float array) of a CLI sweep CSV; blank values become NaN."""
    with open(path, encoding="utf-8", newline="") as handle:
        meta_line = handle.readline()
        columns = handle.readline().rstrip("\n").split(",")
        require(meta_line.startswith("# "), f"{path}: no metadata line")
        meta = dict(bit.split("=", 1) for bit in meta_line[2:].split())
        data = np.loadtxt(
            handle,
            delimiter=",",
            ndmin=2,
            converters={len(columns) - 1: _blank_to_nan},
            encoding="utf-8",
        )
    return meta, columns, data


def read_json(path, columns):
    """(meta, float array) of a CLI sweep JSON.  Grid records are streamed into
    per-column lists by the decoder hook instead of being kept as dicts."""
    cols = {name: [] for name in columns}
    keys = set(columns)

    def hook(pairs):
        if {k for k, _ in pairs} == keys:
            for k, v in pairs:
                cols[k].append(math.nan if v is None else v)
            return None
        return dict(pairs)

    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle, object_pairs_hook=hook)
    require(set(doc) == {"meta", "grid"}, f"{path}: top-level keys {sorted(doc)}")
    require(all(r is None for r in doc["grid"]), f"{path}: grid records with other keys")
    data = np.array([cols[name] for name in columns], dtype=float).T
    require(data.shape[0] == len(doc["grid"]), f"{path}: ragged records")
    return doc["meta"], data


def grid_coordinates(axes):
    """Expected coordinate columns: Cartesian product of the swept axes, first axis slowest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return [m.ravel() for m in mesh]


def check_grid(label, data, axes):
    """Row count equals the grid size and every coordinate equals np.linspace exactly."""
    coords = grid_coordinates(axes)
    size = coords[0].size
    require(data.shape == (size, len(axes) + 1), f"{label}: shape {data.shape}, expected ({size}, {len(axes) + 1})")
    for k, expected in enumerate(coords):
        bad = np.flatnonzero(data[:, k] != expected)
        require(bad.size == 0, f"{label}: coordinate column {k} differs from linspace at row {bad[:1]}")


def check_clip(label, values, ref, tol):
    """Blank exactly where the reference is <= 2; rows within tol of 2 may go either way."""
    blank = np.isnan(values)
    decided = np.abs(ref - 2.0) > tol * 2.0
    wrong = decided & (blank != (ref <= 2.0))
    k = np.flatnonzero(wrong)
    require(k.size == 0, f"{label}: {k.size} rows blanked wrongly, first {k[:1]} (reference {ref[k[:1]]})")
    close(label, values[~blank], ref[~blank], tol)


def check_verify(label, code, text):
    """``verify`` exits 0 and reports every check as PASS, deviation within tolerance."""
    require(code == 0, f"{label}: exit code {code}")
    seen = 0
    for line in text.splitlines():
        if not line.startswith("check "):
            continue
        m = _VERIFY_LINE.match(line)
        require(m is not None, f"{label}: unparsable line {line!r}")
        name, dev, tol, status = m.group(1), float(m.group(2)), float(m.group(3)), m.group(4)
        require(status == "PASS", f"{label}: {name} reported {status}")
        require(0.0 <= dev <= tol, f"{label}: {name} deviation {dev} not within {tol}")
        seen += 1
    require(seen == VERIFY_CHECKS, f"{label}: {seen} check lines, expected {VERIFY_CHECKS}")
