"""Exception types shared across the package, and the iteration cap."""

import os


class NetstabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(NetstabError):
    """Syntax error in an expression or network file."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class EvalError(NetstabError):
    """Evaluation failed (missing assignment, division by zero, ...)."""


class NetworkError(NetstabError):
    """Invalid network definition or malformed network file."""


class TransformError(NetstabError):
    """A network transformation's precondition does not hold."""


class UnboundedDerivativeError(NetstabError):
    """A derivative sup over the domain box is not finite."""


class ConvergenceError(NetstabError):
    """An iterative solver hit its iteration cap without converging."""


def _iteration_cap(default: int = 100_000) -> int:
    """``NETSTAB_MAX_ITERS`` when set, else ``default``."""
    raw = os.environ.get("NETSTAB_MAX_ITERS", "")
    if not raw:
        return default
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise NetstabError(f"NETSTAB_MAX_ITERS must be a positive integer, got {raw!r}")
    return cap
