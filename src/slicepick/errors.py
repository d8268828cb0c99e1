"""Exception types shared across the package."""


class SlicepickError(Exception):
    """Base class for errors raised by slicepick."""


class InvalidSpecError(SlicepickError):
    """A synthetic-data spec or configuration is unusable."""


class SettingError(InvalidSpecError, ValueError):
    """A configuration field holds a value outside its domain; ``setting``
    is the field's name."""

    def __init__(self, setting, message):
        super().__init__(message)
        self.setting = setting


class UndefinedStatisticError(SlicepickError):
    """A statistic was requested for a grouping with no valid pairs."""


class FormatError(SlicepickError):
    """A file does not conform to its declared binary/JSON layout."""


class SamplerError(SlicepickError):
    """Batch-plan construction failed (bad batch size or empty companion pool)."""


class TrainingDivergedError(SlicepickError):
    """Training loss became non-finite."""
