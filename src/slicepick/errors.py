"""Exception types shared across the package."""


class SlicepickError(Exception):
    """Base class for errors raised by slicepick."""


class InvalidSpecError(SlicepickError):
    """A synthetic-data spec or configuration is unusable."""


class SettingError(InvalidSpecError, ValueError):
    """Field ``setting`` of a ``kind`` settings object ``owner`` (or a dict's key,
    for loss terms not yet in a ``LossConfig``) holds a value outside its
    domain: "<kind> setting <setting> must <rule>, got <value>"."""

    def __init__(self, kind, owner, setting, rule):
        value = owner[setting] if isinstance(owner, dict) else getattr(owner, setting)
        super().__init__(f"{kind} setting {setting} must {rule}, got {value!r}")
        self.setting = setting

    def __reduce__(self):
        # unpickled from its message, as from a worker process, not its owner
        return type(self).__new__, (type(self), *self.args), self.__dict__


class UndefinedStatisticError(SlicepickError):
    """A statistic was requested for a grouping with no valid pairs."""


class FormatError(SlicepickError):
    """A file does not conform to its declared binary/JSON layout."""


class SamplerError(SlicepickError):
    """A batch plan cannot be built (an empty companion pool) or breaks an invariant."""


class TrainingDivergedError(SlicepickError):
    """Training loss became non-finite."""
