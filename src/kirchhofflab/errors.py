"""Exception types shared across the package."""


class StabilityError(RuntimeError):
    """Time grid too coarse for the requested mode solve.

    Carries the largest admissible step so callers can refine and retry.
    """

    def __init__(self, message: str, required_step: float | None = None):
        super().__init__(message)
        self.required_step = required_step


class HypothesisError(RuntimeError):
    """A mathematical hypothesis required by an audit is not satisfied.

    Distinct from numerical failure: the requested computation is refused
    because its preconditions do not hold, not because it went wrong.
    """


class RangeOverflowError(OverflowError):
    """A value exceeds the double-precision range.

    ``log_value`` holds the natural log of the offending quantity so the
    magnitude is still reportable.
    """

    def __init__(self, message: str, log_value: float | None = None):
        super().__init__(message)
        self.log_value = log_value


class _NonFiniteError(RangeOverflowError, ValueError):
    """A trajectory entry is not finite, as when a march leaves the double range."""


class ScenarioError(ValueError):
    """Scenario configuration is malformed (parse or validation failure)."""
