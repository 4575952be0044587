"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numerical failures with 3, non-convergence with 4.
"""


class VortexError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigurationError(VortexError):
    """Invalid configuration: bad grid size, step counts, unparseable config."""

    exit_code = 2


class DomainError(VortexError):
    """Input outside an operation's mathematical domain (e.g. a mode array
    with a nonzero mean fhat(0) or a nonzero Nyquist mode, which no field
    may carry)."""

    exit_code = 2


class NumericalError(VortexError):
    """Numerical failure during a computation: overflow in a Girsanov
    exponent, violated stability guard mid-run, non-finite weights.

    Carries an optional ``diagnostics`` dict with context for the report.
    """

    exit_code = 3

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class NonConvergenceError(VortexError):
    """Picard iteration failed to reach tolerance within max_iter.

    ``history`` holds the recorded per-iteration norms and ratios.
    """

    exit_code = 4

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history
