"""Exception types shared across the package."""


class ValidationError(ValueError):
    """A parameter, configuration entry, or argument violates its contract.

    The message always names the offending field or flag.
    """


class InfeasibleError(RuntimeError):
    """A root has no sign change in its window, a closed form leaves double
    range, or the problem has no feasible point.

    The message names the quantity and its window (or the offending derived
    value), so the caller can see where the design left the feasible range.
    """

