"""The record codec: every dataclass record to JSON and back.

Campaign results, localization records, facts, run reports, fault plans
and drift plans are dataclasses whose JSON record is their fields. The
codec compiles one encoder and one decoder per class from its fields
and type hints, so a record cannot drift from its dataclass. It imports
nothing from the package: with :func:`register`, each layer gives it
its classes' schema rows and its typed error, which every malformed
record of those classes raises. :func:`read_spec` is the one reader
of hand-written specs (``--fault-plan``, ``--drift-plan``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import typing
from pathlib import Path
from typing import Dict, NamedTuple, NoReturn, Optional, Tuple, Union


class Schema(NamedTuple):
    """What a record says beyond its dataclass's fields.

    A record holds its class's dataclass fields in field order, except:

    * ``exclude`` — fields the record leaves out. An excluded field
      without a default is taken on read from the same-named attribute
      of the enclosing record.
    * ``order`` — the record's key order, where it is not field order.
    * ``optional`` — keys a record may lack; it decodes to the field's
      default. Every other key is required.
    * ``version`` — top-level records lead with ``"version": version``,
      and a record without it is malformed.
    * ``omit`` — ``"none"``: a field holding None is left out;
      ``"default"``: a field at its default is left out.
    * ``spec`` — a record people write by hand (a plan): any field with
      a default may be absent, and an unknown key is an error.
    """

    exclude: Tuple[str, ...] = ()
    order: Optional[Tuple[str, ...]] = None
    optional: Tuple[str, ...] = ()
    version: Optional[int] = None
    omit: Optional[str] = None
    spec: bool = False


#: class -> (its schema row, the typed error its records raise).
_ROWS: Dict[type, Tuple[Schema, type]] = {}


def register(error: type, rows: Dict[type, Schema]) -> None:
    """Give the codec one layer's schema rows and its typed error."""
    for cls, schema in rows.items():
        _ROWS[cls] = (schema, error)


def _fail(error: type, message: str) -> NoReturn:
    raise error(message)  # lint: ignore[RP901] -- a registered layer error


def _json_type(value) -> str:
    if isinstance(value, dict):
        return "object"
    if isinstance(value, list):
        return "array"
    return type(value).__name__


def _noun(cls: type) -> str:
    """``DriftOp`` -> ``"drift op"``, for messages."""
    return re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()


def _converters(hint, label: str, error: type):
    """``(encode, decode, inherits)`` for values of one field type.

    ``encode`` and ``decode`` are None where the JSON value is the field
    value as is. ``inherits`` names the fields that records in a
    sequence of this type take from the record holding the sequence.
    ``label`` names the field in errors.
    """
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)

    def mismatch(value, json_type: str) -> NoReturn:
        _fail(
            error,
            f"{label}: expected a JSON {json_type}, got {_json_type(value)}",
        )

    if dataclasses.is_dataclass(hint):
        codec = _codec(hint, error)
        return codec.encode, codec.decoder(label), codec.inherited
    if origin is Union:  # Optional[X]
        (inner,) = [arg for arg in args if arg is not type(None)]
        enc, dec, _ = _converters(inner, label, error)

        def encode_optional(value):
            return None if value is None else enc(value)

        def decode_optional(value):
            return None if value is None else dec(value)

        return (
            encode_optional if enc else None,
            decode_optional if dec else None,
            (),
        )
    pair = typing.get_args(args[0]) if origin is tuple else ()
    if len(pair) == 2 and pair[1] is not Ellipsis:
        # A pair table, Tuple[Tuple[K, V], ...] (a fault plan's per-AS
        # and per-link rates): written as an array of pairs, read from
        # that or from a JSON object, with keys converted to K.
        key_in = pair[0]

        def decode_pairs(value):
            if isinstance(value, dict):
                value = value.items()
            elif not isinstance(value, list):
                mismatch(value, "object or array of pairs")
            return tuple((key_in(k), v) for k, v in value)

        def encode_pairs(value):
            return [list(item) for item in value]

        return encode_pairs, decode_pairs, ()
    if origin in (list, tuple):  # homogeneous: List[X], Tuple[X, ...]
        enc, dec, inherits = _converters(args[0], label, error)
        container = list if origin is list else tuple

        def encode_seq(value):
            return list(value) if enc is None else [enc(x) for x in value]

        def decode_seq(value):
            if not isinstance(value, list):
                mismatch(value, "array")
            return container(value if dec is None else [dec(x) for x in value])

        return encode_seq, decode_seq, inherits
    if origin is dict:  # Dict[str | int, X]; a bare Dict is Dict[str, Any]
        key_type, value_hint = args or (str, typing.Any)
        enc, dec, _ = _converters(value_hint, label, error)
        if key_type is str and enc is None:
            # Scalar values: the JSON object is the field value, copied.
            def decode_object(value):
                if not isinstance(value, dict):
                    mismatch(value, "object")
                return dict(value)

            return None, decode_object, ()
        if typing.get_origin(value_hint) is dict and enc is None:
            # Inner maps of scalars (control_hops' per-TTL hop counts)
            # stay as parsed: a copy each would double the cost of
            # decoding a CenTrace record.
            dec = None
        # JSON object keys are strings: int keys (control_hops' TTLs)
        # are written as their decimal text.
        key_in = int if key_type is int else str

        def encode_map(value):
            if enc is None:
                return {str(k): v for k, v in value.items()}
            return {str(k): enc(v) for k, v in value.items()}

        def decode_map(value):
            if not isinstance(value, dict):
                mismatch(value, "object")
            if dec is None:
                return {key_in(k): v for k, v in value.items()}
            return {key_in(k): dec(v) for k, v in value.items()}

        return encode_map, decode_map, ()
    return None, None, ()


class _Codec:
    """One dataclass's encoder and decoders, compiled once from its fields.

    The functions are generated source — a dict display and a
    constructor call, as a hand-written serializer pair would spell
    them — so a record costs what the hand-written pair did.
    """

    def __init__(self, cls: type, error: type) -> None:
        schema, error = _ROWS.get(cls, (Schema(), error))
        fields = {f.name: f for f in dataclasses.fields(cls)}
        persisted = [name for name in fields if name not in schema.exclude]
        keys = schema.order or tuple(persisted)
        # field -> (default or default factory, "" or "()" to call it)
        defaults = {}
        for key, f in fields.items():
            if f.default is not dataclasses.MISSING:
                defaults[key] = (f.default, "")
            elif f.default_factory is not dataclasses.MISSING:
                defaults[key] = (f.default_factory, "()")
        optional = tuple(defaults) if schema.spec else schema.optional
        if sorted(keys) != sorted(persisted) or not set(optional) <= set(
            defaults
        ):
            # Programmer contract: the schema table disagrees with the
            # dataclass — code, never user input.
            raise TypeError(  # lint: ignore[RP901] -- not user-reachable
                f"{cls.__name__}: schema {schema} does not fit its fields"
            )
        hints = typing.get_type_hints(cls)
        name = cls.__name__
        # Excluded fields without a default are set by the enclosing
        # record once it is built (None until then).
        self.inherited = tuple(
            key for key in schema.exclude if key not in defaults
        )
        self.env = {
            "cls": cls,
            "error": error,
            "json_type": _json_type,
            "known": frozenset(keys) | (
                {"version"} if schema.version is not None else set()
            ),
        }
        record = (
            [f'"version": {schema.version}']
            if schema.version is not None else []
        )
        # A record that leaves keys out is built one key at a time.
        sparse = []
        kwargs = [f"{key}=None" for key in self.inherited]
        fill = []
        for key in keys:
            enc, dec, inherits = _converters(
                hints[key], f"{name}.{key}", error
            )
            if key in defaults:
                self.env[f"default_{key}"] = defaults[key][0]
                default = f"default_{key}{defaults[key][1]}"
            value = f"obj.{key}"
            if enc is not None:
                self.env[f"enc_{key}"] = enc
                value = f"enc_{key}({value})"
            if schema.omit is None:
                record.append(f"{key!r}: {value}")
            else:
                indent = "    "
                if schema.omit == "none":
                    sparse.append(f"    if obj.{key} is not None:")
                    indent += "    "
                elif key in defaults:
                    sparse.append(f"    if obj.{key} != {default}:")
                    indent += "    "
                sparse.append(f"{indent}record[{key!r}] = {value}")
            item = f"data[{key!r}]"
            if dec is not None:
                self.env[f"dec_{key}"] = dec
                item = f"dec_{key}({item})"
            if key in optional:
                item = f"({item} if {key!r} in data else {default})"
            kwargs.append(f"{key}={item}")
            if inherits:
                fill.append(f"        for item in obj.{key}:")
                fill.extend(
                    f"            item.{field} = obj.{field}"
                    for field in inherits
                )
        # A record lacking "version" is malformed like one lacking a
        # field: the lookup raises the same KeyError.
        version = (
            ["        data['version']"] if schema.version is not None else []
        )
        strict = [
            "    if not data.keys() <= known:",
            "        raise error(",
            f"            f'{{label}}: unknown {_noun(cls)} fields: '",
            "            f'{sorted(data.keys() - known)}'",
            "        )",
        ] if schema.spec else []
        # The sources hold only field names and this module's literals.
        exec(
            "\n".join([
                "def encode(obj):",
                f"    record = {{{', '.join(record)}}}",
                *sparse,
                "    return record",
            ]),
            self.env,
        )
        self.encode = self.env["encode"]
        self.decode_source = "\n".join([
            "def decode(data):",
            "    if not isinstance(data, dict):",
            "        raise error(",
            "            f'{label}: expected a JSON object, '",
            "            f'got {json_type(data)}'",
            "        )",
            *strict,
            "    try:",
            *version,
            f"        obj = cls({', '.join(kwargs)})",
            *fill,
            "    except error:",
            "        raise",
            "    except KeyError as exc:",
            "        raise error(",
            "            f'{label}: lacks key {exc.args[0]!r}'",
            "        ) from None",
            "    except (TypeError, ValueError) as exc:",
            "        raise error(f'{label}: {exc}') from None",
            "    return obj",
            "",
        ])
        self.decode = self.decoder(f"{name} record")

    def decoder(self, label: str):
        """A decoder whose errors name ``label`` (record or field)."""
        env = dict(self.env, label=label)
        exec(self.decode_source, env)
        return env["decode"]


@functools.lru_cache(maxsize=None)
def _codec(cls: type, error: Optional[type]) -> _Codec:
    return _Codec(cls, error)


def encode(obj) -> Dict:
    """The JSON-ready record of a dataclass instance."""
    return _codec(type(obj), None).encode(obj)


def decode(cls: type, data, error: Optional[type] = None):
    """Rebuild a ``cls`` instance from its record; a malformed record
    raises the error ``cls``'s layer registered (else ``error``)."""
    return _codec(cls, error).decode(data)


def read_spec(cls: type, spec, presets: Optional[Dict] = None):
    """A ``cls`` from a hand-written spec.

    ``spec`` is an instance, a record dict, a name in ``presets``,
    inline JSON, or ``@path/to/spec.json``. Anything else — an unknown
    name, an unreadable file, malformed JSON, a malformed record —
    raises the error ``cls``'s layer registered.
    """
    if isinstance(spec, cls):
        return spec
    if isinstance(spec, dict):
        return decode(cls, spec)
    _, error = _ROWS[cls]
    noun = _noun(cls)
    presets = presets or {}
    text = spec.strip() if isinstance(spec, str) else ""
    if text in presets:
        return presets[text]
    source = "inline spec"
    if text.startswith("@"):
        source = text[1:]
        try:
            text = Path(source).read_text()
        except OSError as exc:
            _fail(error, f"cannot read {noun} file {source}: {exc}")
    elif not text.startswith(("{", "[")):
        names = f"one of {sorted(presets)}, " if presets else ""
        _fail(
            error,
            f"unknown {noun} {spec!r}; expected {names}inline JSON, "
            "or @path/to/plan.json",
        )
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(error, f"malformed {noun} JSON in {source}: {exc}")
    if not isinstance(data, dict):
        _fail(error, f"{noun} in {source} must be a JSON object, got "
              f"{_json_type(data)}")
    return decode(cls, data)
