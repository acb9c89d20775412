"""Shared exception types, and the one reader of text input files."""


class ContractViolation(ValueError):
    """An operation was called with arguments that break its contract."""


class InputError(ValueError):
    """Bad user-supplied input (corpus, config, manifest, ...)."""


class FormatError(ValueError):
    """A serialized file does not match its documented format."""


class TrainingError(RuntimeError):
    """Training hit a state it cannot recover from (e.g. non-finite loss)."""


def read_lines(path: str) -> list[str]:
    """The lines of the UTF-8 text file at `path`, newlines stripped.  A
    file that is not UTF-8 text is a FormatError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e.reason})") from None
