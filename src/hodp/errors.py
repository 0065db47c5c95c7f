"""Exception hierarchy shared across the package."""


class HodpError(Exception):
    """Base class for every error raised by this package."""


class TermError(HodpError):
    """Structural problems with terms or positions."""


class TypeCheckError(TermError):
    """An application whose function and argument types do not fit."""


class InvalidPositionError(TermError):
    """A position that does not exist in the given term."""


class InputError(HodpError):
    """Problems with a user-supplied system.  The CLI maps these to exit code 2."""


class SystemSyntaxError(InputError):
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


class SystemTypeError(InputError):
    """A rule that cannot be typed, or whose two sides have different types."""


class AmbiguousVariableType(InputError):
    """A rule variable whose type is not determined by its uses."""


class MalformedLhsError(SystemSyntaxError):
    """A rule left-hand side whose head is not a declared symbol."""


class PrecedenceCycleError(InputError):
    """Precedence requirements that order some symbol above itself."""


class LimitError(HodpError):
    """A configured resource budget ran out.  The CLI maps these to exit code 3."""
