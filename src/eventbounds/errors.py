"""Exception hierarchy for the eventbounds package.

Every error raised deliberately by the library derives from
:class:`EventBoundsError`, so callers can catch the whole family at once.
Plain ``ValueError`` is still used for ordinary argument mistakes (an index
out of range, mismatched vector lengths) where no domain meaning attaches.
"""


class EventBoundsError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateMeasureError(EventBoundsError):
    """The measure has zero total mass, so probabilities are undefined."""


class NotApplicableError(EventBoundsError):
    """The requested bound family is not defined for these parameters."""


class DegenerateConfigurationError(EventBoundsError):
    """A denominator vanished or a subsystem was singular.

    For the binomial moment matrix this cannot happen at admissible
    parameters; hitting this error indicates a caller bug, and we fail
    loudly rather than divide by zero.
    """


class ResourceLimitError(EventBoundsError):
    """An enumeration guard tripped before the computation started."""


class InputFormatError(EventBoundsError):
    """An input file or payload does not match the documented format."""


class InfeasibleMomentsError(InputFormatError):
    """The moments are not those of any probability distribution."""
