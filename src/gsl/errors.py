"""Exception types shared across the package.

Every failure the library can signal deliberately (as opposed to a plain
bug) gets its own class so callers can match on meaning rather than on
message strings.
"""


class GslError(Exception):
    """Base class for all deliberate gsl failures."""


class DomainError(GslError, ValueError):
    """An input is outside the documented domain of an operation
    (zero polynomial, composite modulus, non-monic where monic is required,
    p = 2 where an odd prime is required, ...)."""


class NotFound(DomainError):
    """A search scanned its whole range without finding what it looks for
    (an adequate specialization, a point in a square class), or had
    nothing to scan."""


class NotSeparable(GslError):
    """A polynomial required to be squarefree/separable is not."""


class WildOrIrregular(GslError):
    """The p-adic oracle met wild ramification (p divides a candidate
    ramification index) or a configuration outside its certified scope
    (a fractional-slope side with a repeated residual factor, or a cluster
    tree deeper than its depth cap).  No precision changes either, so the
    oracle raises it on the first rung that meets it.  Callers must treat
    the local invariants as unknown, never guess."""


class PrecisionExhausted(GslError):
    """The working p-adic precision was insufficient to certify a step.
    Inside the oracle it moves the precision ladder up a rung (N doubles);
    when the last rung fails too, the oracle raises it to its caller,
    naming the rungs tried and the last failed check."""


class NonUniform(GslError):
    """Local invariants that must be uniform across factors (for a Galois
    input) are not: the input is not Galois over Q, or a bug."""


class NonUniformRamification(NonUniform):
    """Distinct expansion cycles at one point of the line disagree on the
    ramification index: the cover is not Galois (or not regular)."""


class UnstableResidueField(GslError):
    """A Puiseux expansion reached its depth cap (`puiseux_at`'s `prec`,
    a number of Newton polygon levels) with a repeated residual root
    still unresolved; the expansion is exact, so only a larger cap can
    help."""


class HypothesisViolation(GslError):
    """A documented precondition of the prediction machinery fails for this
    input (e.g. the meeting prime divides the constant coefficient of a
    branch locus), so the prediction contract does not apply."""


class MeetingUniquenessError(GslError):
    """More than one branch point is met at the same (t0, p): p should have
    been in the conservative bad set; refusing to predict."""


class ChartMixing(GslError, ValueError):
    """Approximation targets mix the finite chart with the chart at
    infinity; no single rational point satisfies both."""


class SchemaError(GslError, ValueError):
    """A cover description file does not satisfy the documented schema."""
