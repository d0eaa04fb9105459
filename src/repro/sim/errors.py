"""Exception hierarchy for the simulation kernel.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` etc.) propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """An invariant of the simulation kernel was violated.

    Raised, for instance, when a component is registered twice or when a
    run exceeds its cycle bound without meeting its termination predicate.
    """


class ChannelError(SimulationError):
    """Misuse of a :class:`repro.sim.Channel`.

    Typical causes are pushing to a full channel without checking
    :meth:`~repro.sim.Channel.can_push` first, or popping from an empty one.
    """


class ConfigurationError(ReproError):
    """A component was built or reconfigured with inconsistent parameters."""
