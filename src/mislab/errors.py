"""Exception types shared across the package, the known-kind check, and
the reader of input files."""


class ConfigError(Exception):
    """Invalid run configuration: bad parameters, malformed spec files, unusable inputs."""


class EngineError(Exception):
    """A programming error inside the simulation core, e.g. an invalid move set."""


class ScriptError(Exception):
    """A scripted schedule asked for a move that is not enabled, or ran dry."""


class InvariantViolation(EngineError):
    """A property the model guarantees was observed to fail during a run.

    `rerun`, once set by the loop that ran the trial, is a command line that
    reproduces the failure.
    """

    def __init__(self, message: str, rerun: str | None = None):
        super().__init__(message)
        self.rerun = rerun


def known_kind(kind: str, kinds, what: str) -> str:
    """kind, if it is one of kinds (a registry or its keys); otherwise a
    ConfigError that lists them."""
    if kind not in kinds:
        raise ConfigError(f"unknown {what} {kind!r}; expected one of {tuple(kinds)}")
    return kind


def read_text(path: str) -> str:
    """An input file's text; bytes that are not UTF-8 are a ConfigError
    naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text at byte {exc.start}") from None
