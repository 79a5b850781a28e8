"""Exception hierarchy shared by all hrflow modules."""


class HrflowError(Exception):
    """Base class for every error raised by this package."""


class SpaceModelError(HrflowError):
    """A structure-constant table is internally inconsistent or unsupported."""


class PositivityViolation(HrflowError):
    """A derived coefficient that must be strictly positive is not."""


class DomainError(HrflowError):
    """A metric coefficient left the positive cone where the flow is defined."""


class NotAnEinsteinRoot(HrflowError):
    """A direction passed as an Einstein root fails the defining equation."""


class OnEinsteinRoot(HrflowError):
    """An operation was evaluated too close to a fixed flow direction."""


class Undetermined(HrflowError):
    """A valid input whose classification the numerics cannot decide."""


class NotCollapsed(Undetermined):
    """A singular time beyond ``--horizon``, or one that is not finite."""


class InsufficientHorizon(Undetermined):
    """A backward step budget that ran out.  Nothing in this package raises
    it; the benchmark's tracer (perfbench/tracing.py) imports it."""


class Unclassified(HrflowError):
    """A limit was asked of a trajectory it is not read from, such as the
    blow-up limit of a backward run."""


class OutOfRange(HrflowError):
    """A requested base time lies outside the sampled trajectory."""


class NonpositiveC(HrflowError):
    """An isotropy irreducible table yields a nonpositive shrink rate."""
