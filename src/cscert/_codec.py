"""The one JSON form of every report dataclass.

Fields appear in declaration order with a two-space indent and a trailing
newline; integer dict keys become strings and tuples become lists. Decoding
reads the field type hints to undo both, so ``from_json(to_json())`` returns
an equal report.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing


class JsonReport:
    """Mixin for frozen report dataclasses: stable JSON that round-trips exactly."""

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str):
        return _decode(cls, json.loads(text))


def _decode(tp, value):
    """Rebuild a value of type ``tp`` from its parsed JSON form."""
    if value is None:
        return None
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return tp(**{f.name: _decode(hints[f.name], value[f.name]) for f in dataclasses.fields(tp)})
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None holding an X
        (inner,) = [a for a in args if a is not type(None)]
        return _decode(inner, value)
    if origin is dict:
        return {_decode(args[0], k): _decode(args[1], v) for k, v in value.items()}
    if origin is tuple:
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], v) for v in value)
        return tuple(_decode(a, v) for a, v in zip(args, value))
    if tp is int:
        return int(value)  # dict keys arrive as strings
    return value
