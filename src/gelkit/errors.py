"""Exception hierarchy shared by every module.

The CLI maps these onto process exit codes: configuration problems
(:class:`SchemaError`) exit 2, numerical failures exit 3, and budget
guards exit 4.
"""


class GelkitError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(GelkitError):
    """A JSON document or experiment config violates the documented schema.

    ``pointer`` is a JSON pointer (RFC 6901) to the offending location.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


class NumericError(GelkitError):
    """Base class for failures of numerical procedures."""


class NegativeRate(NumericError):
    """A merge rate evaluated negative beyond tolerance.

    The one rule, in :func:`gelkit.system.pair_rates`: a pair's rate
    ``kbar`` is below ``-COORD_TOL`` (1e-9) times its envelope rate
    ``khat = |x| . |A| |y|``.  Signals a system/measure pair on which the
    bilinear form is not a valid rate kernel.
    """


class DegenerateMeasure(NumericError):
    """The measure fails a nondegeneracy requirement (singular Gram
    matrix or a Perron vector that is not single-signed)."""


class NoConvergence(NumericError):
    """An iterative solver exhausted its budget without converging."""


class SlowConvergence(NumericError):
    """Newton on the maximal fixed point took more than its cap of 100
    steps without a step below ``1e-13 * |c|_inf`` or a step that no longer
    descends.  Far above a small root each step about halves ``c``, so the
    cap is met only by a root some 2**90 below the saturation bound; at
    ``t_g (1 + 1e-11)`` on the presets Newton takes about 40 steps."""


class DegenerateCubic(NumericError):
    """The quadratic correction term of the fixed-point map vanishes, so
    no critical slope exists."""


class ExplosionReached(NumericError):
    """The moment flow is blown up at the requested time ``s`` after its
    start: ``1 - s sigma_max <= 1e-12`` (``sigma`` of :class:`SpectralResult`)."""


class DualNotSubcritical(NumericError):
    """The tilted initial condition is not subcritical at the requested
    time, so the duality route cannot produce sol moments."""


class RateUnderflow(NumericError):
    """The merge envelope rate of a particle run is not finite: the rows'
    absolute coordinate totals overflow double precision."""


class WindowInvalid(NumericError):
    """The requested time window violates its ordering precondition."""


class BudgetExceeded(GelkitError):
    """A configured size or count cap would be exceeded."""
