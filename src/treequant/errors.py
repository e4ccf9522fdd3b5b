"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Shapes of interacting arrays do not line up."""


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class DataError(ValueError):
    """Malformed input data file."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite value."""


class CheckpointError(RuntimeError):
    """Base for checkpoint container problems."""


class BadMagicError(CheckpointError):
    pass


class UnsupportedVersionError(CheckpointError):
    pass


class CorruptPayloadError(CheckpointError):
    pass
