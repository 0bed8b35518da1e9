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

# Size and work bounds, so that no scenario that parses asks for an unbounded
# (2, points, modes) trajectory buffer, fixed-point work (count x points x
# max_iter mode-samples) or linear-audit output (count x points CSV rows).
# Every shipped or benchmarked run stays more than 10x below each.
MAX_MODES = 2**14
MAX_POINTS = 2**20
MAX_MODE_SAMPLES = 2**25
MAX_ITER = 1000
MAX_ITER_MODE_SAMPLES = 2**30
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
            raise ScenarioError(
                f"scenario {self.name!r}: options.manufactured is required here"
            )
        m = self.manufactured
        return OscillatingSpeed(
            q=m.q, T=self.horizon, amplitude=m.amplitude, offset=m.offset
        )


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


def _get_map(doc, path: str) -> dict:
    if not isinstance(doc, dict):
        _fail(path, "expected an object")
    return doc


def _check_keys(doc: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        _fail(path, f"unknown field {unknown[0]!r}")


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        _fail(path, f"missing required field {key!r}")
    return doc[key]


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


def _parse_initial(doc, count: int, s: float, path: str):
    doc = _get_map(doc, path)
    _check_keys(doc, {"position", "velocity", "family"}, path)
    if "family" not in doc and "position" not in doc and "velocity" not in doc:
        _fail(path, "needs 'position'/'velocity' lists or a 'family' block")

    def fill(key):
        listed = _number_list(doc[key], f"{path}.{key}") if key in doc else []
        if len(listed) > count:
            _fail(f"{path}.{key}", f"has {len(listed)} entries but the basis has {count} modes")
        out = np.zeros(count)
        out[: len(listed)] = listed
        return out

    position = fill("position")
    velocity = fill("velocity")
    if "family" in doc:
        if "position" in doc:
            _fail(path, "give either 'position' or 'family', not both")
        fam = _get_map(doc["family"], f"{path}.family")
        _check_keys(fam, {"amplitude", "decay", "modes"}, f"{path}.family")
        amp = _number(_require(fam, "amplitude", f"{path}.family"), f"{path}.family.amplitude")
        decay = _number(
            _require(fam, "decay", f"{path}.family"), f"{path}.family.decay", lo=0.0
        )
        modes = _require(fam, "modes", f"{path}.family")
        if (
            not isinstance(modes, list)
            or len(modes) != 2
            or not all(isinstance(m, int) and not isinstance(m, bool) for m in modes)
        ):
            _fail(f"{path}.family.modes", "expected [first, last] mode numbers")
        lo_m, hi_m = modes
        if not 1 <= lo_m <= hi_m <= count:
            _fail(
                f"{path}.family.modes",
                f"range [{lo_m}, {hi_m}] invalid for a basis of {count} modes",
            )
        mu = np.arange(1, count + 1, dtype=float)
        mask = (mu >= lo_m) & (mu <= hi_m)
        with np.errstate(over="ignore"):  # a decay past the double range: exp(-inf) = 0
            position = np.where(mask, amp * np.exp(-decay * mu ** (1.0 / s)), 0.0)
    return position, velocity


def parse_scenario(doc, source: str = "scenario") -> Scenario:
    doc = _get_map(doc, source)
    _check_keys(
        doc,
        {"name", "command", "basis", "initial", "gevrey", "horizon", "grid", "options"},
        source,
    )
    name = _require(doc, "name", source)
    if not isinstance(name, str) or not name:
        _fail(f"{source}.name", "expected a nonempty string")

    command = doc.get("command")
    if command is not None and command not in COMMANDS:
        _fail(f"{source}.command", f"unknown command {command!r}")

    basis = _get_map(_require(doc, "basis", source), f"{source}.basis")
    _check_keys(basis, {"kind", "count"}, f"{source}.basis")
    kind = _require(basis, "kind", f"{source}.basis")
    if kind not in BASIS_KINDS:
        _fail(f"{source}.basis.kind", f"expected one of {BASIS_KINDS}, got {kind!r}")
    count = _integer(
        _require(basis, "count", f"{source}.basis"), f"{source}.basis.count", lo=1, hi=MAX_MODES
    )

    gev = _get_map(_require(doc, "gevrey", source), f"{source}.gevrey")
    _check_keys(gev, {"s", "eta"}, f"{source}.gevrey")
    s = _number(_require(gev, "s", f"{source}.gevrey"), f"{source}.gevrey.s", lo=1.0, strict_lo=True)
    if not 1.0 + 1.0 / s > 1.0:
        _fail(f"{source}.gevrey.s", f"too large: q = 1 + 1/s rounds to 1, got {s}")
    eta = _number(
        _require(gev, "eta", f"{source}.gevrey"), f"{source}.gevrey.eta", lo=0.0, strict_lo=True
    )

    horizon = _number(_require(doc, "horizon", source), f"{source}.horizon", lo=0.0, strict_lo=True)

    grid = _get_map(_require(doc, "grid", source), f"{source}.grid")
    _check_keys(grid, {"steps", "grading_ratio", "end_gap"}, f"{source}.grid")
    steps = _integer(_require(grid, "steps", f"{source}.grid"), f"{source}.grid.steps", lo=1)
    grading = grid.get("grading_ratio")
    if grading is not None:
        grading = _number(grading, f"{source}.grid.grading_ratio", lo=0.0, strict_lo=True)
        if grading >= 1.0:
            _fail(f"{source}.grid.grading_ratio", f"must lie in (0, 1), got {grading}")
    end_gap = _number(grid.get("end_gap", 1e-9), f"{source}.grid.end_gap", lo=0.0, strict_lo=True)
    if ("end_gap" in grid or grading is not None) and not 0.0 < horizon - end_gap < horizon:
        _fail(f"{source}.grid.end_gap", f"need 0 < horizon - end_gap < horizon, got {end_gap}")
    points = _grid_points(steps, horizon, grading, end_gap)
    check_bound(f"{source}.grid", "points (upper estimate)", points, MAX_POINTS)
    check_bound(source, "basis.count x grid points", count * points, MAX_MODE_SAMPLES)

    position, velocity = _parse_initial(_require(doc, "initial", source), count, s, f"{source}.initial")

    opts = _get_map(doc.get("options", {}), f"{source}.options")
    _check_keys(
        opts,
        {"tol", "max_iter", "sigma", "M", "deltas", "manufactured"},
        f"{source}.options",
    )
    tol = check_tol(opts.get("tol", 1e-10), f"{source}.options.tol")
    max_iter = _integer(opts.get("max_iter", 30), f"{source}.options.max_iter", lo=1, hi=MAX_ITER)
    work = count * points * max_iter
    check_bound(source, "basis.count x grid points x options.max_iter", work, MAX_ITER_MODE_SAMPLES)
    sigma = _number(opts.get("sigma", 1.0), f"{source}.options.sigma", lo=1.0)
    m_choice = opts.get("M")
    if m_choice is not None:
        m_choice = _number(m_choice, f"{source}.options.M", lo=0.0, strict_lo=True)
    deltas = tuple(_number_list(opts.get("deltas", []), f"{source}.options.deltas"))

    manufactured = None
    if "manufactured" in opts:
        man = _get_map(opts["manufactured"], f"{source}.options.manufactured")
        _check_keys(man, {"q", "amplitude", "offset", "m0", "M"}, f"{source}.options.manufactured")
        mp = f"{source}.options.manufactured"
        manufactured = ManufacturedSpec(
            q=_number(_require(man, "q", mp), f"{mp}.q", lo=1.0, strict_lo=True),
            amplitude=_number(_require(man, "amplitude", mp), f"{mp}.amplitude", lo=0.0),
            offset=_number(_require(man, "offset", mp), f"{mp}.offset", lo=1.0),
            m0=_number(man.get("m0", 1.0), f"{mp}.m0", lo=0.0, strict_lo=True),
            M=_number(_require(man, "M", mp), f"{mp}.M", lo=0.0, strict_lo=True),
        )
        if manufactured.m0 > manufactured.M:
            _fail(f"{mp}.m0", f"must be <= M = {manufactured.M}, got {manufactured.m0}")

    return Scenario(
        name=name,
        command=command,
        basis_kind=kind,
        basis_count=count,
        position=position,
        velocity=velocity,
        gevrey=GevreyParams(s=s, eta=eta),
        horizon=horizon,
        grid_steps=steps,
        grading_ratio=grading,
        end_gap=end_gap,
        tol=tol,
        max_iter=max_iter,
        sigma=sigma,
        m_choice=m_choice,
        deltas=deltas,
        manufactured=manufactured,
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
