"""Exception hierarchy shared by every module, and the one JSON config decoder.

The CLI maps these onto stable exit codes: configuration and validation
problems exit 1, I/O and file-format problems exit 2.

Every config dataclass read from JSON (``ModelConfig``, ``TrainConfig``,
``AdamHyper``, ``DistortionSpec``) inherits ``JsonConfig.from_dict``, so a
``--config`` section, a ``dataset.json`` spec and a model file's config block
pass the same key and type rule. Each loader maps the resulting
``ConfigError`` onto its own exit code: ``--config`` exits 1, ``load_dataset``
re-raises it as ``ManifestError`` and ``load_model`` as ``ModelFormatError``
(both exit 2). Range checks stay in each dataclass's ``__post_init__``.
"""

import sys
from dataclasses import fields


class CapnetError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(CapnetError):
    """Tensor shapes incompatible with the requested operation."""


class DomainError(CapnetError):
    """Numeric input outside an operation's domain (log of non-positive, overflow)."""


class ValidationError(CapnetError):
    """Data fails a contract: non-binary targets, unknown symbols, charset mismatch."""


class EncodingError(ValidationError):
    """A label symbol has no index in the charset."""


class ParameterError(CapnetError):
    """Hyperparameter outside its legal range."""


class DegenerateBatchError(CapnetError):
    """Batch too small for an operation that needs batch statistics."""


class ConfigError(ValidationError):
    """Model or run configuration is malformed or internally inconsistent."""


class CapacityError(CapnetError):
    """Requested dataset size exceeds the number of distinct labels."""


class RenderError(CapnetError):
    """A symbol cannot be rendered (missing from the glyph atlas)."""


class DatasetIOError(CapnetError):
    """Base class for dataset persistence failures."""


class MissingFileError(DatasetIOError):
    """A file listed in the manifest does not exist."""


class ManifestError(DatasetIOError):
    """Dataset manifest missing, malformed, or inconsistent."""


class IntegrityError(DatasetIOError):
    """Stored image bytes do not match their declared shape or format."""


class ModelFormatError(CapnetError):
    """Model file malformed (bad magic, unknown tensor, corrupt payload)."""


class TruncationError(ModelFormatError):
    """Model file ends before the declared payload is complete."""


class UnsupportedVersionError(ModelFormatError):
    """Model file written by an incompatible format version."""


class ChecksumError(ModelFormatError):
    """Model file checksum does not match its contents."""


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# JSON value test per dataclass field type; the one tuple field is conv_filters
_FITS = {
    bool: lambda v: isinstance(v, bool),
    int: _is_int,
    float: lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max,
    str: lambda v: isinstance(v, str),
    tuple: lambda v: isinstance(v, (list, tuple)) and all(_is_int(x) for x in v),
}


class JsonConfig:
    """Base of the config dataclasses; supplies their one ``from_dict``."""

    @classmethod
    def from_dict(cls, d):
        """Build cls from a JSON object; unknown keys and ill-typed values raise ConfigError."""
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(d) - set(types)
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
        for key, value in d.items():
            fits = _FITS.get(types[key])
            if fits is None or not fits(value):
                raise ConfigError(f"{cls.__name__}.{key} must be "
                                  f"{types[key].__name__}, got {value!r}")
        return cls(**d)
