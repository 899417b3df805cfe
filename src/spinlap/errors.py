"""The package's one exception root.

Every typed error of spinlap derives from SpinlapError and keeps its builtin
base (ValueError for invalid input, RuntimeError for a failed computation),
so `except SpinlapError` catches any of them and `except ValueError` still
catches the input errors.  Each class lives in the module that raises it.
"""


class SpinlapError(Exception):
    """Base class of every exception spinlap raises on purpose."""
