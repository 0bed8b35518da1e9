"""Time-dependent propagation speeds and their admissibility audits.

A speed profile c(t) is admissible for horizon T when its values stay inside
[m0, M] and its slope never exceeds the blow-up envelope K0/(T - t)^q.  Paths
are stored as samples with piecewise-linear interpolation, which represents
any locally Lipschitz profile to arbitrary accuracy and is closed under every
operation used here.
"""
from __future__ import annotations

import collections
import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import floattext
from .errors import RangeOverflowError
from .spectral import _increasing, _readonly

# Rows formatted per block: column-wise formatting is fast, and a block's
# buffers, O(_CSV_BLOCK x columns) bytes, are all a writer holds at once.
_CSV_BLOCK = 1024
_OPEN_FILES = 32  # the most files a writer holds open


def _csv_cells(columns, rows: slice) -> list[np.ndarray]:
    """Cells of each ``column[rows]`` of ``columns``, each a (rows, ``floattext.CELL``) uint8
    array, one row a cell: its text and a "," among NUL bytes, which the writer drops.  An
    integer cell's text is ``str`` of the value; a float cell's is exactly ``repr(float(x))``
    (see :mod:`.floattext`).  The float columns are formatted in one call on their
    concatenation, which moves no byte: each cell is formatted alone."""
    cs = [np.asarray(c)[rows] for c in columns]
    floats = [c for c in cs if not np.issubdtype(c.dtype, np.integer)]
    if floats:
        cells = floattext.repr_cells(np.concatenate(floats, dtype=float, casting="unsafe"))
    out, at = [], 0
    for c in cs:
        if np.issubdtype(c.dtype, np.integer):
            out.append(floattext.text_cells(map(str, c.tolist()), c.size))
        else:
            out.append(cells[at:at + c.size])
            at += c.size
    return out


def _shared(column, like):
    """``like`` if its bits equal those of ``column``, so that files holding both format it
    once (see :func:`_write_files`); else ``column``."""
    a, b = np.asarray(column), np.asarray(like)
    same = a.shape == b.shape and a.dtype == b.dtype == np.float64
    return like if same and np.array_equal(a.view(np.int64), b.view(np.int64)) else column


def _write_files(files) -> None:
    """Write every ``(path, header, body)`` of ``files``: CSV columns under ``header``, or a
    report's text if it is None.  Up to _OPEN_FILES consecutive files are open at once; their
    rows go out in blocks of _CSV_BLOCK, one ``write`` a block.  A column object that several
    of them hold is formatted once a block, all such columns in one :func:`_csv_cells` call,
    and each file's other columns in one call a block.  A block's text is its cells side by
    side, the last separator of each row made a newline, with the NUL bytes dropped."""
    for group in (files[i:i + _OPEN_FILES] for i in range(0, len(files), _OPEN_FILES)):
        with contextlib.ExitStack() as stack:
            csvs = []
            for path, header, body in group:
                f = stack.enter_context(open(path, "wb"))
                f.write((body if header is None else ",".join(header) + "\n").encode())
                csvs += [] if header is None else [(f, body, len(body[0]))]
            uses = collections.Counter(id(c) for _, columns, _ in csvs for c in columns)
            shared = {id(c): c for _, columns, _ in csvs for c in columns if uses[id(c)] > 1}
            for i in range(0, max((n for *_, n in csvs), default=0), _CSV_BLOCK):
                rows = slice(i, i + _CSV_BLOCK)
                cells = dict(zip(shared, _csv_cells(shared.values(), rows) if shared else ()))
                for f, columns, n in csvs:
                    if i < n:
                        shape = (min(n - i, _CSV_BLOCK), len(columns), floattext.CELL)
                        text = bytearray(math.prod(shape))
                        block = np.frombuffer(text, np.uint8).reshape(shape)
                        own = [c for c in columns if id(c) not in cells]
                        mine = iter(_csv_cells(own, rows) if own else ())
                        for j, c in enumerate(columns):
                            block[:, j] = cells[id(c)] if id(c) in cells else next(mine)
                        block[:, -1, -1] = ord("\n")
                        f.write(text.translate(None, b"\0"))


@dataclass(frozen=True)
class AdmissibleClass:
    """Constants (q, M, K0, T, m0) of an admissible-speed class.

    Membership means m0 <= c(t) <= M on [0, T] and |c'(t)| <= K0/(T-t)^q
    almost everywhere on [0, T).  The plain class fixes m0 = 1; a general
    positive lower bound is kept for the linear energy estimate.
    """

    q: float
    M: float
    K0: float
    T: float
    m0: float = 1.0

    def __post_init__(self):
        if not self.q > 1.0:
            raise ValueError(f"blow-up exponent must satisfy q > 1, got {self.q}")
        if not self.T > 0.0:
            raise ValueError(f"horizon must be positive, got {self.T}")
        if not self.K0 >= 0.0:
            raise ValueError(f"slope scale must be nonnegative, got {self.K0}")
        if not 0.0 < self.m0 <= self.M:
            raise ValueError(
                f"bounds must satisfy 0 < m0 <= M, got m0={self.m0}, M={self.M}"
            )

    def slope_envelope(self, t) -> np.ndarray:
        """K0/(T - t)^q; +inf at t = T, identically zero when K0 = 0."""
        dt = self.T - np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            env = self.K0 / dt**self.q
        if self.K0 == 0.0:
            return np.where(dt > 0.0, env, 0.0)
        return env


@dataclass(frozen=True, eq=False)
class CoefficientPath:
    """Sampled speed profile on [0, t_end] with linear interpolation."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = _increasing(self.times, "sample times")
        c = _readonly(self.values)
        if t[0] != 0.0:
            raise ValueError(f"path must start at t = 0, got {t[0]}")
        if c.shape != t.shape or not np.all(np.isfinite(c)):
            raise ValueError("values must be finite and match the time grid")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", c)

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    @classmethod
    def constant(cls, value: float, times) -> "CoefficientPath":
        t = np.asarray(times, dtype=float)
        return cls(t, np.full(t.shape, float(value)))

    def _check_domain(self, ts) -> None:
        slack = 1e-12 * max(1.0, self.end_time)
        if np.any(ts < -slack) or np.any(ts > self.end_time + slack):
            raise ValueError(f"evaluation time outside path domain [0, {self.end_time}]")

    def evaluate(self, t):
        """Linear interpolation; raises outside [0, t_end]."""
        ts = np.asarray(t, dtype=float)
        self._check_domain(ts)
        out = np.interp(np.clip(ts, 0.0, self.end_time), self.times, self.values)
        return float(out) if np.isscalar(t) or ts.ndim == 0 else out

    def interval_slopes(self) -> np.ndarray:
        """Difference quotients; +inf where one exceeds the double range."""
        with np.errstate(over="ignore"):
            return np.diff(self.values) / np.diff(self.times)

    def slope(self, t: float) -> float:
        """Piecewise slope at t, taking the left limit at sample points."""
        ts = float(t)
        self._check_domain(ts)
        idx = int(np.searchsorted(self.times, ts, side="left"))
        j = min(max(idx - 1, 0), self.times.size - 2)
        return float(
            (self.values[j + 1] - self.values[j]) / (self.times[j + 1] - self.times[j])
        )

    def to_csv(self, path) -> None:
        _write_files([(path, ["t", "c"], [self.times, self.values])])

    @classmethod
    def from_csv(cls, path) -> "CoefficientPath":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(data[:, 0], data[:, 1])


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of auditing a path against an admissible class.

    Margins are signed: nonnegative means the corresponding check passed.
    The slope margin is measured against the envelope at each interval's
    right endpoint, the largest admissible slope bound over the interval.
    """

    bounds_ok: bool
    slope_ok: bool
    passed: bool
    worst_lower_margin: float
    worst_upper_margin: float
    worst_slope_margin: float
    worst_slope_time: float


def check_admissibility(
    path: CoefficientPath, cls: AdmissibleClass, tol: float = 0.0
) -> AdmissibilityReport:
    """Audit value bounds and the slope envelope on the sample grid.

    Values must satisfy m0 - tol <= c <= M + tol; each interval's difference
    quotient must not exceed K0/(T - t_right)^q + tol.
    """
    if not tol >= 0.0:  # nan too: every margin would read nan
        raise ValueError("tolerance must be nonnegative")
    if path.end_time > cls.T + 1e-12 * max(1.0, cls.T):
        raise ValueError(
            f"path extends to {path.end_time}, beyond the class horizon {cls.T}"
        )
    c = path.values
    lower = float(np.min(c - (cls.m0 - tol)))
    upper = float(np.min((cls.M + tol) - c))
    bounds_ok = lower >= 0.0 and upper >= 0.0

    slopes = np.abs(path.interval_slopes())
    envelope = cls.slope_envelope(path.times[1:])
    with np.errstate(invalid="ignore"):  # inf - inf: a nan margin, which fails
        margins = envelope + tol - slopes
    worst = int(np.argmin(margins))
    slope_margin = float(margins[worst])
    slope_ok = slope_margin >= 0.0
    return AdmissibilityReport(
        bounds_ok=bounds_ok,
        slope_ok=slope_ok,
        passed=bounds_ok and slope_ok,
        worst_lower_margin=lower,
        worst_upper_margin=upper,
        worst_slope_margin=slope_margin,
        worst_slope_time=float(path.times[1 + worst]),
    )


def equicontinuity_gap(cls: AdmissibleClass, t1: float, t2: float) -> float:
    """Largest |c(t2) - c(t1)| compatible with the slope envelope.

    Equals K0/(q-1) * [(T-t2)^(1-q) - (T-t1)^(1-q)] for 0 <= t1 <= t2 < T.
    """
    if t1 < 0.0 or t2 < t1:
        raise ValueError("times must satisfy 0 <= t1 <= t2")
    if t2 >= cls.T:
        raise ValueError(f"t2 must lie strictly before the horizon {cls.T}")
    if t1 == t2 or cls.K0 == 0.0:
        return 0.0
    e = cls.q - 1.0
    return cls.K0 / e * ((cls.T - t2) ** -e - (cls.T - t1) ** -e)


def sup_distance(
    a: CoefficientPath, b: CoefficientPath, t_lo: float, t_hi: float
) -> float:
    """Max of |a(t) - b(t)| over [t_lo, t_hi].

    Both paths are piecewise linear, so the supremum is attained at a sample
    time of one of them (or an interval endpoint); the merged grid is exact.
    """
    if not t_lo <= t_hi:
        raise ValueError("interval must satisfy t_lo <= t_hi")
    for p in (a, b):
        p._check_domain(np.array([t_lo, t_hi]))
    grid = np.union1d(a.times, b.times)
    grid = grid[(grid >= t_lo) & (grid <= t_hi)]
    grid = np.union1d(grid, [t_lo, t_hi])
    return float(np.max(np.abs(a.evaluate(grid) - b.evaluate(grid))))


@dataclass(frozen=True)
class OscillatingSpeed:
    """Speed profile 1 + amplitude*(offset + sin(phase(t))) with exact envelope.

    The phase ((T-t)^(1-q) - T^(1-q))/(q-1) integrates the envelope profile
    (T-t)^(-q), so the derivative is amplitude*cos(phase)*(T-t)^(-q): the
    profile saturates the admissible slope envelope with K0 = amplitude while
    keeping values inside [1 + amplitude*(offset-1), 1 + amplitude*(offset+1)].
    Undefined at t = T, where the phase diverges.
    """

    q: float
    T: float
    amplitude: float = 0.1
    offset: float = 2.0

    def __post_init__(self):
        if not self.q > 1.0:
            raise ValueError("q must exceed 1")
        if not self.T > 0.0:
            raise ValueError("horizon must be positive")
        if self.amplitude < 0.0 or self.offset - 1.0 < 0.0:
            raise ValueError("amplitude must be >= 0 and offset >= 1")

    def phase(self, t):
        ts = np.asarray(t, dtype=float)
        if np.any(ts < 0.0) or np.any(ts >= self.T):
            raise ValueError("oscillating speed is defined on [0, T) only")
        return ((self.T - ts) ** (1.0 - self.q) - self.T ** (1.0 - self.q)) / (
            self.q - 1.0
        )

    def __call__(self, t):
        return 1.0 + self.amplitude * (self.offset + np.sin(self.phase(t)))

    def derivative(self, t):
        ts = np.asarray(t, dtype=float)
        return self.amplitude * np.cos(self.phase(ts)) * (self.T - ts) ** -self.q

    @property
    def value_min(self) -> float:
        return 1.0 + self.amplitude * (self.offset - 1.0)

    @property
    def value_max(self) -> float:
        return 1.0 + self.amplitude * (self.offset + 1.0)

    def sample(self, times) -> CoefficientPath:
        t = np.asarray(times, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            c = np.asarray(self(t), dtype=float)
        if not np.all(np.isfinite(c)):
            raise RangeOverflowError("manufactured speed leaves the double range on the grid")
        return CoefficientPath(t, c)


def uniform_grid(horizon: float, steps: int) -> np.ndarray:
    """steps+1 equispaced times covering [0, horizon]."""
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    return np.linspace(0.0, horizon, steps + 1)


def graded_grid(
    horizon: float,
    base_step: float,
    grading_ratio: float = 0.9,
    end_gap: float = 1e-9,
) -> np.ndarray:
    """Grid on [0, horizon - end_gap] geometrically refined toward the horizon.

    Steps are uniform of size ``base_step`` until (1 - ratio)*(horizon - t)
    becomes smaller, after which the remaining gap shrinks by ``grading_ratio``
    each step.  Used where a slope envelope blows up at the horizon, so the
    difference-quotient audit keeps resolution where the bound is large.
    Each step advances by at least one ulp, so the grid ends in finite time.
    """
    if not 0.0 < grading_ratio < 1.0:
        raise ValueError("grading ratio must lie in (0, 1)")
    if not 0.0 < end_gap < horizon:
        raise ValueError("end gap must lie in (0, horizon)")
    if not base_step > 0.0:
        raise ValueError("base step must be positive")
    t_stop = horizon - end_gap
    if not t_stop < horizon:
        raise ValueError(f"end gap {end_gap} is below the resolution of horizon {horizon}")
    # The uniform prefix, summed in turn by one cumsum as the loop would sum it: up to 2^22
    # candidate steps, kept up to the first that the loop would take otherwise.  The loop
    # takes the rest.  Below 2^22 steps, t + base_step > t: the one-ulp floor never applies.
    count = int(min(t_stop / base_step, 2**22)) + 1
    with np.errstate(over="ignore"):  # a candidate past the double range is past t_stop
        sums = np.cumsum(np.concatenate(([0.0], np.full(count, base_step))))
    same = (base_step <= (1.0 - grading_ratio) * (horizon - sums[:-1])) & (sums[1:] <= t_stop)
    prefix = sums[:1 + np.argmin(np.append(same, False))]
    out, t = [], float(prefix[-1])
    while t < t_stop:
        h = min(base_step, (1.0 - grading_ratio) * (horizon - t))
        t = min(max(t + h, math.nextafter(t, math.inf)), t_stop)
        out.append(t)
    return np.concatenate((prefix, out))
