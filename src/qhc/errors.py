"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: counterexamples raise
:class:`CharacteristicError` and refuted bounds :class:`BoundError` (exit 1),
guard refusals raise :class:`GuardError` (exit 2), and malformed input
raises :class:`ConfigError` or plain ``ValueError`` (exit 3).
"""


class GuardError(RuntimeError):
    """A resource guard refused the operation (problem too large for the
    requested exact method). The message names the guard and, where one
    exists, the per-input alternative."""


class SearchError(RuntimeError):
    """A randomized search exhausted its attempts without a certified result."""

    def __init__(self, message: str, *, attempts: int, best_max_bias: float | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.best_max_bias = best_max_bias


class CharacteristicError(ValueError):
    """A polynomial presentation disagrees with its target function: some
    polynomial fails to vanish on an input the function maps to 1."""


class BoundError(RuntimeError):
    """An exact acceptance probability on a 0-input exceeds the false-accept
    bound that the key sets' certificates promise: a certificate is false."""


class ConfigError(ValueError):
    """A config, key file, polynomial or flag failed validation at ``path``."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message
