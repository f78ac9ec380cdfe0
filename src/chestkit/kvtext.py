"""The ``key=value`` codec of every text file chestkit writes or reads.

A record maps keys to strings its caller has already formatted, so number
formats stay with the callers.  ``to_text`` writes one token per line or,
with ``sep=" "``, one line; ``from_text`` reads whitespace-separated tokens
back, and ``parse`` converts the values a reader needs.
"""

from __future__ import annotations


class TextFormatError(ValueError):
    """A token without ``=``, an empty or repeated key, a missing or
    unparsable required field, or a record ``to_text`` cannot write."""


def to_text(fields: dict[str, str], sep: str = "\n") -> str:
    """Raises :class:`TextFormatError` for a record ``from_text`` could not
    read back: an empty key, a key holding ``=``, or whitespace in a key or
    value."""
    tokens = [f"{key}={value}" for key, value in fields.items()]
    for key, token in zip(fields, tokens):
        if not key or "=" in key or token.split() != [token]:
            raise TextFormatError(f"cannot write {token!r}: from_text would not read it back")
    return sep.join(tokens) + "\n"


def from_text(text: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for token in text.split():
        key, eq, value = token.partition("=")
        if not eq or not key or key in fields:
            what = "no '='" if not eq else "an empty key" if not key else "a repeated key"
            raise TextFormatError(f"token {token!r} has {what}")
        fields[key] = value
    return fields


def parse(fields: dict[str, str], schema: dict) -> dict:
    """``{key: convert(fields[key])}`` for each ``key: convert`` of ``schema``;
    a converter rejects a value with ValueError."""
    out = {}
    for key, convert in schema.items():
        if key not in fields:
            raise TextFormatError(f"missing field {key!r}")
        try:
            out[key] = convert(fields[key])
        except ValueError as exc:
            raise TextFormatError(f"bad value in {key}={fields[key]}: {exc}") from None
    return out


def flag(value: str) -> bool:
    if value not in ("true", "false"):
        raise ValueError("expected true or false")
    return value == "true"
