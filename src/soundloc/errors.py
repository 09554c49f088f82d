"""Exception hierarchy shared across the package.

Every error a caller can hit maps to one of three families, mirroring the
CLI exit codes: validation (bad inputs/config, exit 2), numeric (training
blew up, exit 3) and I/O format (unreadable files, exit 4).

The settings dataclasses share one type rule, check_numbers: a setting is a
real number or an integer, and a bool is neither; anything else is a
ConfigError before any range check runs.
"""

import numbers


class SoundlocError(Exception):
    """Base class for all package errors."""

    exit_code = 1
    code = "error"


class ValidationError(SoundlocError):
    """Inputs, shapes or configuration violate a documented precondition."""

    exit_code = 2
    code = "validation"


class ShapeError(ValidationError):
    """Tensor shapes are incompatible for the requested operation."""

    code = "shape"


class ConfigError(ValidationError):
    """A configuration value is out of its legal range."""

    code = "config"


class UsageError(ValidationError):
    """A command line that the argument parser rejects."""

    code = "usage"


class EmptyInputError(ValidationError):
    """An operation received an empty sequence where data is required."""

    code = "empty-input"


class NumericError(SoundlocError):
    """A numeric failure (NaN/Inf loss, divergence) during computation."""

    exit_code = 3
    code = "numeric"


class FileFormatError(SoundlocError):
    """A file does not conform to its on-disk format."""

    exit_code = 4
    code = "file-format"


class FeatureFileError(FileFormatError):
    """A feature file failed magic/version/payload checks."""

    code = "feature-file"


class AnnotationFormatError(FileFormatError):
    """An annotation or prediction JSON file failed schema validation."""

    code = "annotation-format"


class CheckpointError(FileFormatError):
    """A checkpoint file is unreadable or incompatible with the model."""

    code = "checkpoint"


def is_real(value) -> bool:
    """Whether a setting is a real number (a bool is not one)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_count(value) -> bool:
    """Whether a setting is an integer (a bool is not one)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_numbers(obj, reals=(), counts=()) -> None:
    """A ConfigError naming the first of obj's settings that is not a real
    number (those in reals) or not an integer (those in counts)."""
    for names, ok, kind in ((reals, is_real, "a number"),
                            (counts, is_count, "an integer")):
        for name in names:
            value = getattr(obj, name)
            if not ok(value):
                raise ConfigError(f"{name} must be {kind}, got {value!r}")
