"""Problem construction, deterministic random generation, and file I/O.

A :class:`Problem` couples an n-by-n cost matrix with entries in [0, 1]
(max entry 1 after normalization unless the matrix is identically zero) and
two simplex marginals.  Generators are seeded with numpy's PCG64 generator
(``np.random.default_rng``), whose stream is stable across platforms, so
identical seeds give identical problems everywhere.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np

from ._kernels import tile_rows
from .errors import DimensionError, DomainError, ParseError

SIMPLEX_TOL = 1e-12
# Parsing tolerates decimal round-trip noise up to this before renormalizing;
# larger deviations are treated as genuinely bad inputs.
PARSE_SIMPLEX_TOL = 1e-9

# The one-dimensional term f of each separable grid metric.
_GRID_METRICS = {"l1": np.abs, "l2sq": np.square}

TRACE_HEADER = [
    "t", "gamma", "eps_d", "newton_steps", "cg_iters", "sinkhorn_steps",
    "linesearch_backtracks", "grad_norm_l1", "rho_final", "delta_min", "q",
    "ops_n2", "wall_ms",
]


@dataclass
class Problem:
    """Cost matrix plus row/column marginals on the simplex."""

    C: np.ndarray
    r: np.ndarray
    c: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.C = np.ascontiguousarray(self.C, dtype=np.float64)
        self.r = np.ascontiguousarray(self.r, dtype=np.float64)
        self.c = np.ascontiguousarray(self.c, dtype=np.float64)
        self.validate()

    @property
    def n(self):
        return self.C.shape[0]

    def validate(self):
        if self.C.ndim != 2 or self.C.shape[0] != self.C.shape[1]:
            raise DimensionError(f"cost matrix must be square, got {self.C.shape}")
        n = self.C.shape[0]
        if self.r.shape != (n,) or self.c.shape != (n,):
            raise DimensionError(
                f"marginal lengths {self.r.shape}, {self.c.shape} do not match n={n}")
        # NaN and +-inf propagate through min and max, so two reductions
        # check finiteness and range with no n-by-n temporary.
        lo, hi = self.C.min(), self.C.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DomainError("cost matrix must be finite")
        if lo < 0.0 or hi > 1.0:
            raise DomainError("cost entries must lie in [0, 1]")
        for name, m in (("r", self.r), ("c", self.c)):
            if np.any(m < 0.0):
                raise DomainError(f"marginal {name} has negative entries")
            if not abs(m.sum() - 1.0) <= SIMPLEX_TOL:  # NaN fails too
                raise DomainError(f"marginal {name} sums to {m.sum():.17g}, not 1")


@dataclass
class TraceRow:
    """Per-outer-iteration telemetry row (one line of the trace CSV)."""

    t: int
    gamma: float
    eps_d: float
    newton_steps: int
    cg_iters: int
    sinkhorn_steps: int
    linesearch_backtracks: int
    grad_norm_l1: float
    rho_final: float
    delta_min: float
    q: float
    ops_n2: int
    wall_ms: float


def grid_points_cost(n, metric, side=None):
    """Cost matrix from the first ``n`` points of a 2-d grid, normalized to max 1.

    Points are laid out row-major on a ``side``-by-``side`` grid (default:
    the smallest square grid holding ``n`` points).  ``metric`` is ``"l1"``
    (Manhattan) or ``"l2sq"`` (squared Euclidean).

    Both metrics are separable, ``C_ij = f(x_i - x_j) + f(y_i - y_j)``, so
    the matrix is written tile by tile (``_kernels.tile_rows`` rows) from the
    two coordinate vectors: its peak memory is the one n-by-n result plus a
    tile.  Every entry is an exact integer before the normalization.
    """
    if n < 1:
        raise DimensionError("need at least one grid point")
    f = _GRID_METRICS.get(metric.lower())
    if f is None:
        raise DomainError(f"unknown metric {metric!r}; use 'l1' or 'l2sq'")
    if side is None:
        side = int(np.ceil(np.sqrt(n)))
    x, y = np.divmod(np.arange(n), side)
    x, y = x.astype(np.float64), y.astype(np.float64)
    C = np.empty((n, n))
    rows = tile_rows(n)
    tile = np.empty((min(rows, n), n))
    m = 0.0
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        out, t = C[i0:i1], tile[:i1 - i0]
        f(np.subtract(x[i0:i1, None], x, out=out), out=out)
        f(np.subtract(y[i0:i1, None], y, out=t), out=t)
        out += t
        m = max(m, out.max())
    if m > 0.0:
        C /= m
    return C


def gen_grid_cost(side, metric):
    """Normalized pairwise-distance cost over a side-by-side pixel grid (n = side^2)."""
    if side < 1:
        raise DimensionError("grid side must be >= 1")
    return grid_points_cost(side * side, metric, side=side)


def gen_marginal(n, kind, seed):
    """Seeded simplex vector of length ``n``.

    ``uniform``        constant 1/n.
    ``smooth-random``  exponentiated Gaussian random walk, normalized; mimics
                       slowly varying image intensity rows.
    ``spiky-random``   i.i.d. exponentials, normalized; heavy variation.
    Random kinds are strictly positive and identical for identical seeds.
    """
    if n < 1:
        raise DimensionError("marginal length must be >= 1")
    kind = kind.lower()
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    rng = np.random.default_rng(seed)
    if kind == "smooth-random":
        walk = np.cumsum(rng.standard_normal(n)) * 0.25
        w = np.exp(walk - walk.max())
    elif kind == "spiky-random":
        w = rng.exponential(scale=1.0, size=n)
        w = np.maximum(w, 1e-12)
    else:
        raise DomainError(f"unknown marginal kind {kind!r}")
    return w / w.sum()


def _fmt(x):
    return format(float(x), ".17g")


def save_problem(problem, path):
    """Write a Problem in the plain-text ``OTP`` format (17 significant digits)."""
    lines = [f"OTP {problem.n}"]
    lines.append(" ".join(_fmt(v) for v in problem.r))
    lines.append(" ".join(_fmt(v) for v in problem.c))
    for row in problem.C:
        lines.append(" ".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_floats(text, n, lineno, what):
    parts = text.split()
    if len(parts) != n:
        raise ParseError(f"line {lineno}: expected {n} values for {what}, got {len(parts)}")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad float in {what}: {exc}") from exc
    if not np.isfinite(values).all():
        raise ParseError(f"line {lineno}: non-finite value in {what}")
    return values


def load_problem(path):
    """Read a Problem written by :func:`save_problem`.

    Marginals within ``1e-9`` of unit sum are renormalized (decimal round-trip
    noise); larger deviations raise :class:`ParseError` naming the line.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln.strip() != ""]
    if not lines:
        raise ParseError("line 1: empty problem file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "OTP":
        raise ParseError(f"line 1: expected header 'OTP n', got {lines[0]!r}")
    try:
        n = int(header[1])
    except ValueError as exc:
        raise ParseError(f"line 1: bad dimension {header[1]!r}") from exc
    if n < 1:
        raise ParseError("line 1: dimension must be >= 1")
    if len(lines) != 3 + n:
        raise ParseError(f"line {len(lines)}: expected {3 + n} lines for n={n}, got {len(lines)}")
    r = _parse_floats(lines[1], n, 2, "row marginal")
    c = _parse_floats(lines[2], n, 3, "column marginal")
    C = np.empty((n, n))
    for i in range(n):
        C[i] = _parse_floats(lines[3 + i], n, 4 + i, f"cost row {i}")
    for lineno, name, m in ((2, "row marginal", r), (3, "column marginal", c)):
        s = m.sum()
        if not abs(s - 1.0) <= PARSE_SIMPLEX_TOL:  # NaN fails too
            raise ParseError(f"line {lineno}: {name} sums to {s:.17g}, outside tolerance")
        if abs(s - 1.0) > SIMPLEX_TOL:
            m /= s
    label = str(path)
    return Problem(C=C, r=r, c=c, label=label)


def write_trace(rows, path):
    """Write TraceRows as CSV with the fixed telemetry header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for row in rows:
            writer.writerow([getattr(row, name) for name in TRACE_HEADER])


def read_trace(path):
    """Read a trace CSV back into TraceRow objects (inverse of write_trace)."""
    out = []
    types = {f.name: f.type for f in fields(TraceRow)}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != TRACE_HEADER:
            raise ParseError(f"line 1: unexpected trace header {reader.fieldnames}")
        for rec in reader:
            kwargs = {}
            for name in TRACE_HEADER:
                kwargs[name] = int(rec[name]) if types[name] == "int" else float(rec[name])
            out.append(TraceRow(**kwargs))
    return out
