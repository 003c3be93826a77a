"""Exception hierarchy for the simulator.

Every error carries a stable ``code`` string so scenario reports and CLI
diagnostics can refer to failures without parsing messages.
"""

# `calibrate`'s code when both targets are out of reach together; it is a
# reported outcome (exit 1), not an exception
E_NO_SOLUTION = "E_NO_SOLUTION"
# the CLI's code for a file it cannot read or write (an `OSError`; exit 2)
E_IO = "E_IO"


class SimulatorError(Exception):
    code = "E_GENERIC"

    def __str__(self) -> str:
        base = super().__str__()
        return f"{self.code}: {base}" if base else self.code


class BadNodeError(SimulatorError):
    code = "E_BAD_NODE"


class NoSuchProcessError(SimulatorError):
    code = "E_NO_SUCH_PROCESS"


class MessageTooLargeError(SimulatorError):
    code = "E_MSG_TOO_LARGE"


class BadSizeError(SimulatorError, ValueError):
    """A negative message size; like `InvalidScenarioError` it is also a
    `ValueError`."""
    code = "E_BAD_SIZE"


class AddressInUseError(SimulatorError):
    code = "E_ADDR_IN_USE"


class BadStateError(SimulatorError):
    code = "E_BAD_STATE"


class ConnRefusedError(SimulatorError):
    code = "E_CONN_REFUSED"


class WouldBlockError(SimulatorError):
    code = "E_WOULD_BLOCK"


class TimeTravelError(SimulatorError):
    code = "E_TIME_TRAVEL"


class InvalidScenarioError(SimulatorError, ValueError):
    """A scenario, config file or CLI value the simulator rejects.  It is
    also a `ValueError`, so code that catches bad values catches it too."""
    code = "E_INVALID_SCENARIO"


class NoConvergenceError(SimulatorError):
    code = "E_NO_CONVERGENCE"
