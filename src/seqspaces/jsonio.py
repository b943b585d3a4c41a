"""The package's JSON format: one encoder, one report codec, one loader.

A report is a dataclass inheriting ``JsonRecord``.  Its JSON object holds
each field under its name, or under the key its ``json_key`` declares
(``None`` leaves the field out), then the properties ``json_computed`` names.
"""

import dataclasses
import json

import numpy as np

from .errors import ParseError


def json_key(key: str | None):
    """A dataclass field written under ``key``, or left out when ``key`` is None."""
    return dataclasses.field(metadata={"json": key})


class JsonRecord:
    """Mixin giving a dataclass the package's ``to_json_dict``."""

    json_computed: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        """Fields under their JSON keys, then the ``json_computed`` properties."""
        out = {}
        for f in dataclasses.fields(self):
            key = f.metadata.get("json", f.name)
            if key is not None:
                out[key] = encode(getattr(self, f.name))
        for key in self.json_computed:
            out[key] = encode(getattr(self, key))
        return out


def encode(obj):
    """The plain JSON form of a reported value: records, vectors, weights, containers."""
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, dict):
        return {k: encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, JsonRecord):
        return obj.to_json_dict()
    if hasattr(obj, "to_json_obj"):  # CoeffVec, RunVec
        return obj.to_json_obj()
    if isinstance(getattr(obj, "spec", None), str):  # Weight
        return obj.spec
    raise TypeError(f"{type(obj).__name__} has no JSON form")


def dumps(obj, indent: int | None = None) -> str:
    """Canonical JSON text: encoded, keys sorted."""
    return json.dumps(encode(obj), sort_keys=True, indent=indent)


def load_json(text, what: str):
    """Parse JSON text; malformed text is a ParseError naming ``what``."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # too deep nesting is malformed too
        raise ParseError(f"bad {what}: {e}") from None
