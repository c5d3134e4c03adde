"""Field-declared configs: one declaration per knob, read by one codec.

A config dataclass declares each field once with :func:`knob`: the
:class:`Shape` its value must have (type plus range or choices), whether
it may be ``None``, and its default. :func:`check` (the validator),
:func:`encode` and :func:`decode` (the JSON payload codec) read those
declarations, so a field's type and range are stated in one place::

    @dataclass(frozen=True)
    class BreakerPolicy(Declared):
        knob_owner = "breaker"

        failure_threshold: int = knob(Int(low=1), default=3)

A refusal raises the owner's ``knob_error`` and names the field:
``"<owner> field '<name>' must be <expected>, got <value>"``. Choices may
be any container, a :class:`~repro.utils.registry.Registry` included,
and are listed on refusal. The declarations are plain data, so tests
derive their value strategies from them too.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, ClassVar

from repro.exceptions import ReproError, ValidationError
from repro.utils.validation import is_int


def _got(value: Any) -> str:
    return f"{type(value).__name__} {value!r}"


class Shape:
    """One form a field's value may take.

    ``fits`` is the type test. ``problem`` is ``None`` for a valid value,
    else what follows "got" in the refusal; a nested declared object
    raises its own typed error instead. ``expected`` describes a valid
    value, and ``target`` is the :class:`Declared` class a JSON object
    decodes to, if any.
    """

    def expected(self) -> str:
        raise NotImplementedError

    def target(self) -> "type | None":
        return None

    def fits(self, value: Any) -> bool:
        raise NotImplementedError

    def problem(self, value: Any) -> "str | None":
        return None if self.fits(value) else _got(value)


@dataclass(frozen=True)
class Type(Shape):
    """An instance of ``cls`` (a class or a tuple of them).

    ``check`` validates it, raising its own typed error; a
    :class:`Declared` one is validated by default, and is what a JSON
    object decodes to. With ``check`` (a shorthand its owner normalizes,
    such as a retry policy, an int or a dict) the value persists exactly
    as given. An undeclared class (a :class:`~repro.api.Defense`, say) is
    accepted but cannot be persisted.
    """

    cls: "type | tuple"
    text: str = ""
    check: "Callable[[Any], Any] | None" = None

    def expected(self) -> str:
        return self.text or f"a {getattr(self.cls, '__name__', '')} object"

    def target(self) -> "type | None":
        cls = self.cls
        if self.check is None and isinstance(cls, type) and issubclass(cls, Declared):
            return cls
        return None

    def fits(self, value):
        return isinstance(value, self.cls)

    def problem(self, value):
        if not isinstance(value, self.cls):
            return _got(value)
        if self.check is not None:
            self.check(value)
        elif isinstance(value, Declared):
            value.validate()
        return None


NULL = Type(type(None), "None")
BOOL = Type(bool, "a bool")
OBJECT = Type(dict, "an object")


@dataclass(frozen=True)
class Float(Shape):
    """A real number (an ``int`` or ``float``, never a ``bool``) in a range."""

    low: "float | None" = None
    high: "float | None" = None
    low_open: bool = False
    high_open: bool = False
    noun: ClassVar[str] = "a number"

    def expected(self) -> str:
        low, high = self.low, self.high
        if low is not None and high is not None:
            ends = "(" if self.low_open else "[", ")" if self.high_open else "]"
            return f"{self.noun} in {ends[0]}{low:g}, {high:g}{ends[1]}"
        if low is not None:
            return f"{self.noun} {'above' if self.low_open else 'of at least'} {low:g}"
        return self.noun

    def fits(self, value):
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def problem(self, value):
        if not self.fits(value):
            return _got(value)
        low, high = self.low, self.high
        # Written as what must hold, so that NaN is refused.
        valid = (low is None or (value > low if self.low_open else value >= low)) and (
            high is None or (value < high if self.high_open else value <= high)
        )
        return None if valid else repr(value)


class Int(Float):
    """A Python ``int`` (never a ``bool``) in a range."""

    noun = "an int"

    def fits(self, value):
        return is_int(value)


@dataclass(frozen=True)
class Str(Shape):
    """A string; with ``choices``, one of them (``kind`` names them).

    A value outside the choices, a non-string included, is refused as
    ``unknown <kind> <value>`` with the choices listed.
    """

    choices: Any = None
    kind: "str | None" = None

    @property
    def _kind(self) -> str:
        return self.kind or self.choices.kind

    def expected(self) -> str:
        return "a string" if self.choices is None else f"a {self._kind} name"

    def fits(self, value):
        return isinstance(value, str)

    def problem(self, value):
        if self.choices is None:
            return None if isinstance(value, str) else _got(value)
        if isinstance(value, str) and value in self.choices:
            return None
        return f"unknown {self._kind} {value!r}; choose from {list(self.choices)}"


@dataclass(frozen=True)
class Seq(Shape):
    """A tuple (a list is accepted) of ``item`` values."""

    item: Shape

    def expected(self) -> str:
        return f"a list, each {self.item.expected()}"

    def fits(self, value):
        return isinstance(value, (list, tuple))

    def problem(self, value):
        if not self.fits(value):
            return _got(value)
        return next(filter(None, map(self.item.problem, value)), None)


@dataclass(frozen=True)
class Pair(Shape):
    """A ``(first, second)`` tuple (a 2-list is accepted)."""

    first: Shape
    second: Shape

    def expected(self) -> str:
        return f"a ({self.first.expected()}, {self.second.expected()}) pair"

    def fits(self, value):
        return isinstance(value, (list, tuple)) and len(value) == 2

    def problem(self, value):
        if not self.fits(value):
            return _got(value)
        return self.first.problem(value[0]) or self.second.problem(value[1])


class OneOf(Shape):
    """The first of ``shapes`` whose type fits decides (so put ints first)."""

    def __init__(self, *shapes: Shape) -> None:
        self.shapes = shapes

    def expected(self) -> str:
        return " or ".join(shape.expected() for shape in self.shapes)

    def target(self) -> "type | None":
        return next(filter(None, (shape.target() for shape in self.shapes)), None)

    def fits(self, value):
        return any(shape.fits(value) for shape in self.shapes)

    def problem(self, value):
        for shape in self.shapes:
            if shape.fits(value):
                return shape.problem(value)
        return _got(value)


def knob(
    shape: Shape, *, none: bool = False, default: Any = MISSING, factory: Any = MISSING
) -> Any:
    """A dataclass field declared by ``shape``; ``none`` also allows ``None``."""
    declared = OneOf(NULL, shape) if none else shape
    metadata = {"knob": declared, "value": shape, "none": none}
    return field(default=default, default_factory=factory, metadata=metadata)


class Declared:
    """Mixin of a field-declared config: ``validate``, ``to_payload``, ``from_payload``.

    ``knob_owner`` names the config in messages and ``knob_error`` is the
    error it raises. A field is labelled ``"<owner> field '<name>'"``, or
    by its bare name when ``knob_prefix`` is false. Cross-field rules go
    in an overriding ``validate`` that calls ``super()`` first.
    """

    knob_owner: ClassVar[str] = "config"
    knob_error: ClassVar[type[ReproError]] = ValidationError
    knob_prefix: ClassVar[bool] = True

    def validate(self) -> None:
        """Refuse any field that does not fit its declaration."""
        check(self)

    def to_payload(self) -> dict[str, Any]:
        """JSON-ready dict, one key per declared field."""
        return encode(self)

    @classmethod
    def from_payload(cls, payload: Any, *, partial: bool = False) -> Any:
        """Rebuild (and validate) from :meth:`to_payload` output."""
        return decode(cls, payload, partial=partial)


@functools.cache
def knobs(cls: Any) -> dict[str, Shape]:
    """The declared shape of each of ``cls``'s init fields, in field order.

    A field declared without :func:`knob`, or whose default does not fit
    its declaration, raises ``TypeError``.
    """
    declared: dict[str, Shape] = {}
    for spec in fields(cls):
        if not spec.init:
            continue
        if "knob" not in spec.metadata:
            raise TypeError(f"{cls.__name__}.{spec.name} has no knob(...) declaration")
        shape = declared[spec.name] = spec.metadata["knob"]
        if spec.default is not MISSING and shape.problem(spec.default) is not None:
            raise TypeError(f"{cls.__name__}.{spec.name}'s default is not {shape.expected()}")
    return declared


@functools.cache
def _plan(cls: Any) -> tuple:
    # One C-level getter of every field, beside (name, default, the shape
    # of a value that is not None): a value that *is* its (already
    # checked) default, or an allowed None, passes untested.
    specs = [spec for spec in fields(cls) if spec.name in knobs(cls)]
    getter = operator.attrgetter(*[spec.name for spec in specs])
    plan = tuple(
        (spec.name, spec.default, spec.metadata["value"], spec.metadata["none"])
        for spec in specs
    )
    return (getter if len(plan) > 1 else lambda obj: (getter(obj),)), plan


@functools.cache
def _targets(cls: Any) -> dict[str, "type | None"]:
    return {name: shape.target() for name, shape in knobs(cls).items()}


def _refuse(cls: Any, name: str, shape: Shape, tail: str) -> ReproError:
    label = f"{cls.knob_owner} field {name!r}" if cls.knob_prefix else name
    return cls.knob_error(f"{label} must be {shape.expected()}, got {tail}")


def check(obj: Any) -> None:
    """The generic validator: every declared field of ``obj`` fits."""
    cls = type(obj)
    getter, plan = _plan(cls)
    for value, (name, default, shape, none) in zip(getter(obj), plan):
        if value is default or (value is None and none):
            continue
        tail = shape.problem(value)
        if tail is not None:
            raise _refuse(cls, name, knobs(cls)[name], tail)


def _to_json(value: Any) -> Any:
    if isinstance(value, Declared):
        return encode(value)
    if isinstance(value, (list, tuple)):
        return [_to_json(entry) for entry in value]
    if isinstance(value, dict):
        return dict(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ValidationError(
        f"{value!r}, which is not JSON-serializable; use a registry key or a "
        "(key, params) pair in configs meant for persistence"
    )


def _from_json(data: Any, target: "type | None") -> Any:
    if isinstance(data, dict):
        return dict(data) if target is None else decode(target, data)
    if isinstance(data, list):
        return tuple(_from_json(entry, None) for entry in data)
    return data


def encode(obj: Any) -> dict[str, Any]:
    """The generic encoder: one JSON value per declared field (tuples as
    lists, declared objects as their payloads, dicts copied)."""
    payload: dict[str, Any] = {}
    for name in knobs(type(obj)):
        try:
            payload[name] = _to_json(getattr(obj, name))
        except ValidationError as exc:
            raise type(obj).knob_error(f"{name} holds {exc}") from None
    return payload


def decode_field(cls: Any, name: str, data: Any) -> Any:
    """Decode one field's JSON value, refused unless it fits."""
    shape = knobs(cls)[name]
    value = _from_json(data, _targets(cls)[name])
    tail = shape.problem(value)
    if tail is not None:  # a stranger is named by its JSON type
        raise _refuse(cls, name, shape, tail if shape.fits(value) else _got(data))
    return value


def decode(cls: Any, payload: Any, *, partial: bool = False) -> Any:
    """The generic decoder: a validated ``cls`` from its payload.

    Every declared field must be present unless ``partial`` (then an
    absent one takes its default, and only a field without one must be
    present); an undeclared key is refused. The
    result passes :meth:`Declared.validate`, as a directly built one must.
    """
    owner, error, declared = cls.knob_owner, cls.knob_error, knobs(cls)
    if not isinstance(payload, dict):
        raise error(f"{owner} payload must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(map(str, set(payload) - set(declared)))
    if unknown:
        raise error(f"{owner} payload has unknown field(s) {unknown}; choose from {list(declared)}")
    missing = [name for name in declared if name not in payload]
    if partial:  # only a field with no default must be present
        missing = [
            spec.name
            for spec in fields(cls)
            if spec.name in missing
            and spec.default is MISSING
            and spec.default_factory is MISSING
        ]
    if missing:
        raise error(f"{owner} payload is missing field(s) {missing}")
    targets = _targets(cls)
    obj = cls(**{name: _from_json(data, targets[name]) for name, data in payload.items()})
    obj.validate()
    return obj


def from_spec(cls: Any, spec: Any, shorthand: str) -> Any:
    """A validated ``cls`` from an instance, an int ``shorthand`` field, a
    partial payload dict, or ``None`` (which stays ``None``)."""
    if spec is None:
        return None
    if isinstance(spec, dict):
        return decode(cls, spec, partial=True)
    if not (isinstance(spec, cls) or is_int(spec)):
        raise cls.knob_error(
            f"{cls.knob_owner} must be a {cls.__name__}, an int {shorthand}, a "
            f"payload dict, or None, got {_got(spec)}"
        )
    policy = spec if isinstance(spec, cls) else cls(**{shorthand: spec})
    policy.validate()
    return policy
