"""Exception types shared across the package, the known-kind check, the
reader of input files, and the plain record that the package's value types
are made from."""


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


class Record:
    """A plain record: its fields are the names its class annotates, in
    order, each with the default assigned to it, if any; `_fields` lists
    them. The constructor takes them by position or keyword, `vars` maps
    them to their values, records of one type compare equal field by field,
    and `repr` names each. A class declared with `frozen=True` refuses
    assignment and hashes on its fields. Unlike a dataclass, it generates no
    code when its class is made."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, frozen: bool = False):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse_assignment
            cls.__hash__ = lambda self: hash(tuple(self.__dict__.values()))

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or values.keys() != set(names)
                or not kwargs.keys().isdisjoint(names[:len(args)])):
            raise TypeError(f"{type(self).__name__}() takes each of {names} "
                            "once, by position or keyword, unless it has a default")
        # from a dict: from (name, value) pairs, CPython 3.11 reads the
        # fields back about three times slower
        self.__dict__.update({name: values[name] for name in names})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


def _refuse_assignment(record: Record, name: str, *value) -> None:
    raise AttributeError(
        f"{type(record).__name__} is frozen: {name!r} cannot change")


def replace(record: Record, **changes) -> Record:
    """A new record of record's type: its fields, with `changes` applied."""
    return type(record)(**{**vars(record), **changes})
