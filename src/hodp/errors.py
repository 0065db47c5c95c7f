"""Exception hierarchy shared across the package: one class per way a
caller reacts to an error."""


class HodpError(Exception):
    """Base class for every error raised by this package."""


class TermError(HodpError):
    """An application whose function and argument types do not fit, or a
    position that does not exist in the given term."""


class InputError(HodpError):
    """A user-supplied system or precedence that cannot be used: bad syntax,
    an untypable rule, a variable of undetermined type, a left-hand side not
    headed by a declared symbol, or a precedence that orders a symbol above
    itself.  The CLI maps these to exit code 2."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class LimitError(HodpError):
    """A configured resource budget ran out.  The CLI maps these to exit code 3."""
