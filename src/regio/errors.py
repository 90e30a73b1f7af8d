"""Exception hierarchy for the disaggregation engine.

Every error raised by the engine derives from RegioError so batch callers
can separate engine findings (bad input data, bad config) from genuine bugs.
"""


class RegioError(Exception):
    """Base class for all engine errors."""


# -- region hierarchy ------------------------------------------------------

class HierarchyError(RegioError):
    pass


class DuplicateCode(HierarchyError):
    pass


class UnknownLevel(HierarchyError):
    pass


class DanglingParent(HierarchyError):
    pass


class ParentLevelMismatch(HierarchyError):
    pass


class UnknownRegion(HierarchyError):
    pass


class TargetCoarserThanSource(HierarchyError):
    pass


class TargetFinerThanSource(HierarchyError):
    pass


# -- series ingest / aggregation -------------------------------------------

class SeriesError(RegioError):
    pass


class DuplicateRegion(SeriesError):
    pass


class NonNumericValue(SeriesError):
    pass


class NonFiniteValue(SeriesError):
    pass


class IncompleteSeries(SeriesError):
    """Missing values present where a complete series is required."""


class MissingValue(SeriesError):
    pass


class LengthMismatch(SeriesError):
    pass


class UnknownVariable(SeriesError):
    pass


class DuplicateVariable(SeriesError):
    pass


# -- proxy formulas ---------------------------------------------------------

class FormulaError(RegioError):
    pass


class FormulaSyntaxError(FormulaError):
    """Carries the 0-based position of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.message, self.position = message, position


class UnresolvedVariable(FormulaError):
    pass


class LevelMismatch(FormulaError):
    pass


class NegativeProxyValue(FormulaError):
    pass


class NegativeCap(FormulaError):
    pass


# -- imputation --------------------------------------------------------------

class ImputationError(RegioError):
    pass


class NoPredictors(ImputationError):
    """No candidate survives predictor selection; caller falls back to mean."""


class InsufficientData(ImputationError):
    pass


class UndefinedR2(ImputationError):
    pass


class MissingFeature(ImputationError):
    pass


# -- disaggregation -----------------------------------------------------------

class DisaggregationError(RegioError):
    pass


class EmptyChildSet(DisaggregationError):
    pass


class UnresolvedDependency(DisaggregationError):
    pass


class ConservationError(DisaggregationError):
    """A task's output regions do not sum to their source region's value."""


class NonFiniteAllocation(NonFiniteValue):
    """Carries the 0-based index of the run whose total or a value is not finite."""

    def __init__(self, run: int):
        super().__init__(f"the total or a value of run {run} is not finite")
        self.run = run


# -- validation ----------------------------------------------------------------

class ValidationError(RegioError):
    pass


class UndefinedDeviation(ValidationError):
    """Reported value is zero; percentage deviation is undefined."""


class NoOverlap(ValidationError):
    pass


# -- project config ---------------------------------------------------------------

class ConfigError(RegioError):
    pass
