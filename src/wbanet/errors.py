"""Error types shared across the package, and the type check that config
dataclasses run on their fields."""

from dataclasses import fields


class ShapeError(ValueError):
    """Tensor extents are incompatible with the requested operation."""


class ConfigError(ValueError):
    """A configuration value violates a structural constraint."""


class InputError(ValueError):
    """Input data violates a precondition (negative intensities, extent mismatch)."""


class SamplingError(RuntimeError):
    """The data leave nothing to learn from: pre-classification is degenerate
    (a constant difference image) or a label class to sample is empty."""


class GradError(RuntimeError):
    """Autodiff contract violation (non-scalar loss, consumed graph, missing grad)."""


class FormatError(ValueError):
    """Malformed file content; carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def check_field_types(cfg) -> None:
    """Raise ConfigError unless each ``int`` field of the dataclass ``cfg``
    holds an int and each ``float`` field an int or a float; a bool passes
    neither. Fields with other annotations are not checked."""
    for f in fields(cfg):
        kinds = {"int": int, "float": (int, float)}.get(f.type)
        if kinds is None:
            continue
        v = getattr(cfg, f.name)
        if isinstance(v, bool) or not isinstance(v, kinds):
            raise ConfigError(f"{f.name} must be {f.type}, got {v!r}")
