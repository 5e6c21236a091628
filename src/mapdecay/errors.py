"""Exception hierarchy shared by all mapdecay modules."""


class MapDecayError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MapDecayError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ParameterError(MapDecayError, ValueError):
    """A parameter object is invalid (e.g. zero total decay weight)."""


class AlignmentError(MapDecayError, ValueError):
    """Two grids do not share extent, resolution, or cell alignment."""


class MapFormatError(MapDecayError, ValueError):
    """A map file cannot be parsed: a bad magic or version, or a size the
    header does not promise."""


class ScenarioError(MapDecayError, ValueError):
    """A pose or request is inconsistent with the simulated world."""


class ConfigError(MapDecayError, ValueError):
    """A scenario configuration file is missing, malformed, or invalid."""


class LogError(MapDecayError, ValueError):
    """A sweep/pose log is internally inconsistent."""
