"""Exception and warning types shared across the package."""


class ConfigurationError(ValueError):
    """A run was requested with inconsistent or out-of-contract settings."""


class OutOfWindowError(ValueError):
    """A path was evaluated outside the window it was sampled on."""


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


class DivergenceError(RuntimeError):
    """The time stepper produced a non-finite state.

    Carries the time at which the state first became non-finite.
    """

    def __init__(self, t: float, message: str | None = None):
        self.t = t
        super().__init__(message or f"state became non-finite at t={t!r}")

    def __reduce__(self):
        # the default rebuilds from ``args``, the message alone, as ``t``
        return type(self), (self.t, self.args[0])


class WorkerError(RuntimeError):
    """A forked march worker ended without sending its answer back.

    The message names the worker's exit status or the signal that ended it.
    """


class BoundaryLeakWarning(UserWarning):
    """Solution mass near the artificial boundary exceeds the trust threshold.

    The equation is posed on the whole space; the computational box only
    stands in for it while solutions stay negligible near its edge.
    """
