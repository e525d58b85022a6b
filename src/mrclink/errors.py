"""Exception types shared across the package."""


class InputFormatError(ValueError):
    """A KB, corpus, config, or decisions file does not match the expected schema."""


class ModelConfigError(RuntimeError):
    """A checkpoint, config, or vocabulary is inconsistent with what the caller asked for."""


class SequenceOverflowError(InputFormatError):
    """Query and option tokens alone exceed the maximum sequence length."""
