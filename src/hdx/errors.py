"""Exception types shared across the package."""

from __future__ import annotations


class HdxError(Exception):
    """Base class for all library errors."""


class EmptyInput(HdxError):
    pass


class NotPure(HdxError):
    pass


class FaceNotInComplex(HdxError):
    pass


class ComplexMismatch(HdxError):
    pass


class BadDimension(HdxError):
    pass


class UnknownVertex(HdxError):
    pass


class BadEta(HdxError):
    pass


class BadParam(HdxError):
    pass


class NotPrime(BadParam):
    pass


class TooLarge(HdxError):
    """An enumeration would exceed the configured cap."""

    def __init__(self, required: int, cap: int, what: str = "enumeration"):
        self.required = required
        self.cap = cap
        self.what = what
        super().__init__(
            f"{what} needs {required} elements, cap is {cap} "
            f"(raise the cap explicitly if you really want this)"
        )


class ParseError(HdxError):
    def __init__(self, message: str, line: int, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message} ({where})")


class NoValidTyping(HdxError):
    pass


class NotRegular(HdxError):
    """Carries the violating (type set I, type set J, face) triple."""

    def __init__(self, i_types, j_types, face_tokens, counts):
        self.i_types = tuple(sorted(i_types))
        self.j_types = tuple(sorted(j_types))
        self.face_tokens = tuple(face_tokens)
        self.counts = counts
        super().__init__(
            f"face {self.face_tokens} of type {self.i_types} breaks the constant "
            f"extension count into type {self.j_types}: saw counts {sorted(set(counts))}"
        )


class NotBiregular(HdxError):
    pass


class PreconditionUnverified(HdxError):
    pass
