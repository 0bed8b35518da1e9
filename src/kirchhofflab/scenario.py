"""Scenario files: strict JSON configurations driving the CLI.

Parsing is strict on purpose: unknown keys are rejected, missing required
fields are reported by name, and every numeric field is range-checked before
any solver runs.  A single scenario document carries everything the
subcommands need; each command reads the slice relevant to it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError
from .spectral import GevreyParams, ModeBasis, SpectralState, BASIS_KINDS
from .coefficient import OscillatingSpeed, graded_grid, uniform_grid

COMMANDS = ("simulate", "fixedpoint", "linear-audit", "certify", "norms")

# Size and work bounds, so that no run asks for an unbounded (2, points, modes)
# trajectory buffer, linear-audit output (count x points CSV rows) or fixed-point
# work ((count + ITER_SAMPLE_MODES) x points x max_iter: a sample of one iteration
# costs about as much as ITER_SAMPLE_MODES mode-samples, at any mode count).
# Every shipped or benchmarked run stays more than 10x below each.
MAX_MODES = 2**14
MAX_POINTS = 2**20
MAX_MODE_SAMPLES = 2**25
MAX_ITER = 1000
MAX_ITER_MODE_SAMPLES = 2**30
ITER_SAMPLE_MODES = 128
MAX_AUDIT_ROWS = 2**20


@dataclass(frozen=True)
class ManufacturedSpec:
    """Parameters of the oscillating audit coefficient and its class constants."""

    q: float
    amplitude: float
    offset: float
    m0: float
    M: float


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    command: str | None
    basis_kind: str
    basis_count: int
    position: np.ndarray
    velocity: np.ndarray
    gevrey: GevreyParams
    horizon: float
    grid_steps: int
    grading_ratio: float | None
    end_gap: float
    tol: float
    max_iter: int
    sigma: float
    m_choice: float | None
    deltas: tuple[float, ...]
    manufactured: ManufacturedSpec | None

    def build_basis(self) -> ModeBasis:
        return ModeBasis(self.basis_kind, np.arange(1, self.basis_count + 1, dtype=float))

    def build_initial(self, basis: ModeBasis | None = None) -> SpectralState:
        basis = basis or self.build_basis()
        return SpectralState(basis, self.position, self.velocity)

    def build_grid(self) -> np.ndarray:
        if self.grading_ratio is not None:  # strictly increasing by construction
            return graded_grid(
                self.horizon,
                base_step=self.horizon / self.grid_steps,
                grading_ratio=self.grading_ratio,
                end_gap=self.end_gap,
            )
        grid = uniform_grid(self.horizon, self.grid_steps)
        if np.any(np.diff(grid) <= 0.0):
            raise ScenarioError(f"{self.name}: grid.steps = {self.grid_steps} is finer than "
                                f"horizon = {self.horizon} can resolve")
        return grid

    def build_speed(self) -> OscillatingSpeed:
        if self.manufactured is None:
            raise ScenarioError(f"{self.name}: linear-audit requires options.manufactured")
        m = self.manufactured
        return OscillatingSpeed(
            q=m.q, T=self.horizon, amplitude=m.amplitude, offset=m.offset
        )


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


_REQUIRED = object()  # the default of a field that must be present


def _section(doc, path: str, allowed: set[str]) -> dict:
    """``doc`` as the object at ``path``, refused if it holds a key outside ``allowed``."""
    if not isinstance(doc, dict):
        _fail(path, "expected an object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        _fail(path, f"unknown field {unknown[0]!r}")
    return doc


def _field(doc: dict, path: str, key: str, check, default=_REQUIRED, **bounds):
    """Field ``key`` of the object ``doc`` at ``path``: ``check(value, f"{path}.{key}", **bounds)``.

    Without a default an absent field is refused; with one it reads as the default,
    unchecked.  Where the default is None, an explicit null reads as absent too.
    """
    if key not in doc:
        if default is _REQUIRED:
            _fail(path, f"missing required field {key!r}")
        return default
    value = doc[key]
    if value is None and default is None:
        return None
    return check(value, f"{path}.{key}", **bounds)


def _number(value, path: str, *, lo=None, hi=None, strict_lo=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        _fail(path, "must be finite")
    if lo is not None and (x <= lo if strict_lo else x < lo):
        _fail(path, f"must be {'>' if strict_lo else '>='} {lo}, got {x}")
    if hi is not None and x > hi:
        _fail(path, f"must be <= {hi}, got {x}")
    return x


def _integer(value, path: str, *, lo: int, hi: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if value < lo:
        _fail(path, f"must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        _fail(path, f"must be <= {hi}, got {value}")
    return value


def _choice(value, path: str, *, choices: tuple,
            message="expected one of {choices}, got {value!r}"):
    if value not in choices:
        _fail(path, message.format(choices=choices, value=value))
    return value


def _name(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, "expected a nonempty string")
    return value


def check_tol(value, path: str) -> float:
    return _number(value, path, lo=0.0, strict_lo=True)


def check_bound(path: str, what: str, value, bound: int) -> None:
    if value > bound:
        _fail(path, f"{what} = {value:.6g}, above the bound {bound}")


def _grid_points(steps: int, horizon: float, grading: float | None, end_gap: float) -> float:
    """Upper bound on the number of points of the grid a scenario builds.

    A graded grid takes at most ``steps`` uniform steps, then steps that shrink
    the gap to the horizon by at least (1 + r)/2, which reach ``end_gap`` or a
    gap of 1/(1 - r) ulps, then steps of at least half an ulp each.
    """
    if grading is None:
        return steps + 1
    shrink = -math.log1p(-0.5 * (1.0 - grading))  # log(2 / (1 + r))
    return steps + 4 + math.log(horizon / end_gap) / shrink + 2.0 / (1.0 - grading)


def _number_list(value, path: str) -> list[float]:
    if not isinstance(value, list):
        _fail(path, f"expected a list of numbers, got {value!r}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _mode_data(value, path: str, *, count: int) -> np.ndarray:
    """A list of at most ``count`` mode coefficients, zero-padded to ``count``."""
    listed = _number_list(value, path)
    if len(listed) > count:
        _fail(path, f"has {len(listed)} entries but the basis has {count} modes")
    out = np.zeros(count)
    out[: len(listed)] = listed
    return out


def _mode_range(value, path: str, *, count: int) -> list[int]:
    if (not isinstance(value, list) or len(value) != 2
            or not all(isinstance(m, int) and not isinstance(m, bool) for m in value)):
        _fail(path, "expected [first, last] mode numbers")
    if not 1 <= value[0] <= value[1] <= count:
        _fail(path, f"range [{value[0]}, {value[1]}] invalid for a basis of {count} modes")
    return value


def _initial(doc, path: str, *, count: int, s: float):
    """Initial (position, velocity): mode lists, or a family profile for the position."""
    doc = _section(doc, path, {"position", "velocity", "family"})
    if not doc:
        _fail(path, "needs 'position'/'velocity' lists or a 'family' block")
    position = _field(doc, path, "position", _mode_data, np.zeros(count), count=count)
    velocity = _field(doc, path, "velocity", _mode_data, np.zeros(count), count=count)
    if "family" in doc:
        if "position" in doc:
            _fail(path, "give either 'position' or 'family', not both")
        fam = _field(doc, path, "family", _section, allowed={"amplitude", "decay", "modes"})
        fp = f"{path}.family"
        amp = _field(fam, fp, "amplitude", _number)
        decay = _field(fam, fp, "decay", _number, lo=0.0)
        lo_m, hi_m = _field(fam, fp, "modes", _mode_range, count=count)
        mu = np.arange(1, count + 1, dtype=float)
        mask = (mu >= lo_m) & (mu <= hi_m)
        with np.errstate(over="ignore"):  # a decay past the double range: exp(-inf) = 0
            position = np.where(mask, amp * np.exp(-decay * mu ** (1.0 / s)), 0.0)
    return position, velocity


def _manufactured(doc, path: str) -> ManufacturedSpec:
    doc = _section(doc, path, {"q", "amplitude", "offset", "m0", "M"})
    spec = ManufacturedSpec(
        q=_field(doc, path, "q", _number, lo=1.0, strict_lo=True),
        amplitude=_field(doc, path, "amplitude", _number, lo=0.0),
        offset=_field(doc, path, "offset", _number, lo=1.0),
        m0=_field(doc, path, "m0", _number, 1.0, lo=0.0, strict_lo=True),
        M=_field(doc, path, "M", _number, lo=0.0, strict_lo=True),
    )
    if spec.m0 > spec.M:
        _fail(f"{path}.m0", f"must be <= M = {spec.M}, got {spec.m0}")
    return spec


def parse_scenario(doc, source: str = "scenario") -> Scenario:
    doc = _section(doc, source, {"name", "command", "basis", "initial", "gevrey", "horizon",
                                 "grid", "options"})
    name = _field(doc, source, "name", _name)
    command = _field(doc, source, "command", _choice, None, choices=COMMANDS,
                     message="unknown command {value!r}")

    basis = _field(doc, source, "basis", _section, allowed={"kind", "count"})
    kind = _field(basis, f"{source}.basis", "kind", _choice, choices=BASIS_KINDS)
    count = _field(basis, f"{source}.basis", "count", _integer, lo=1, hi=MAX_MODES)

    gev = _field(doc, source, "gevrey", _section, allowed={"s", "eta"})
    s = _field(gev, f"{source}.gevrey", "s", _number, lo=1.0, strict_lo=True)
    if not 1.0 + 1.0 / s > 1.0:
        _fail(f"{source}.gevrey.s", f"too large: q = 1 + 1/s rounds to 1, got {s}")
    eta = _field(gev, f"{source}.gevrey", "eta", _number, lo=0.0, strict_lo=True)

    horizon = _field(doc, source, "horizon", _number, lo=0.0, strict_lo=True)

    gp = f"{source}.grid"
    grid = _field(doc, source, "grid", _section, allowed={"steps", "grading_ratio", "end_gap"})
    steps = _field(grid, gp, "steps", _integer, lo=1)
    grading = _field(grid, gp, "grading_ratio", _number, None, lo=0.0, strict_lo=True)
    if grading is not None and grading >= 1.0:
        _fail(f"{gp}.grading_ratio", f"must lie in (0, 1), got {grading}")
    end_gap = _field(grid, gp, "end_gap", _number, 1e-9, lo=0.0, strict_lo=True)
    if ("end_gap" in grid or grading is not None) and not 0.0 < horizon - end_gap < horizon:
        _fail(f"{gp}.end_gap", f"need 0 < horizon - end_gap < horizon, got {end_gap}")
    points = _grid_points(steps, horizon, grading, end_gap)
    check_bound(gp, "points (upper estimate)", points, MAX_POINTS)
    check_bound(source, "basis.count x grid points", count * points, MAX_MODE_SAMPLES)

    position, velocity = _field(doc, source, "initial", _initial, count=count, s=s)

    op = f"{source}.options"
    opt = _field(doc, source, "options", _section, {},
                 allowed={"tol", "max_iter", "sigma", "M", "deltas", "manufactured"})
    tol = _field(opt, op, "tol", check_tol, 1e-10)
    max_iter = _field(opt, op, "max_iter", _integer, 30, lo=1, hi=MAX_ITER)
    sigma = _field(opt, op, "sigma", _number, 1.0, lo=1.0)
    m_choice = _field(opt, op, "M", _number, None, lo=0.0, strict_lo=True)
    deltas = tuple(_field(opt, op, "deltas", _number_list, ()))
    manufactured = _field(opt, op, "manufactured", _manufactured) if "manufactured" in opt else None

    return Scenario(
        name=name, command=command, basis_kind=kind, basis_count=count, position=position,
        velocity=velocity, gevrey=GevreyParams(s=s, eta=eta), horizon=horizon, grid_steps=steps,
        grading_ratio=grading, end_gap=end_gap, tol=tol, max_iter=max_iter, sigma=sigma,
        m_choice=m_choice, deltas=deltas, manufactured=manufactured,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
    return parse_scenario(doc, source=str(path))
