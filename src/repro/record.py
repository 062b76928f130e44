"""``repro.record``: the one immutable-record primitive.

A record is ``dataclass(frozen=True, slots=True)`` with one change: its
``__init__`` stores each field through the slot's member descriptor
(``Cls.__dict__[name].__set__``).  The dataclass-generated ``__init__`` of a
frozen class calls ``object.__setattr__`` once per field, which made building
the records minted per transaction and per call (transactions, messages,
block contexts, HMS views) cost about twice what a plain dataclass costs;
the descriptor store costs about what a plain assignment does, and slot
reads are faster than instance-dict reads.

Everything else is the dataclass's own: assigning or deleting any attribute
raises ``FrozenInstanceError`` (the dataclass's own hook
raises ``TypeError`` for a name that is not a field of a slotted class, so a
record installs the plain refusal); eq, hash, repr, ``fields()``, ``replace()``,
``default_factory``, ``compare=False``, ``__post_init__`` and pickling
behave as they do on a frozen dataclass.  Records have no ``__dict__``, so a
value a record derives lazily lives in a field declared ``init=False``, and
no ``__weakref__`` unless the class derives from :class:`WeakReferable`.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from typing import Any, Callable, Dict, List, TypeVar

__all__ = ["record", "WeakReferable"]

T = TypeVar("T", bound=type)


def record(cls: T) -> T:
    """Class decorator: a frozen, slotted dataclass built at plain-dataclass
    speed."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__init__ = _descriptor_init(cls)
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


class WeakReferable:
    """Base class for a record that may be weakly referenced: a slotted
    class has no ``__weakref__`` slot unless a base provides one."""

    __slots__ = ("__weakref__",)


def _refuse(self: Any, name: str, *value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r} of a record")


def _descriptor_init(cls: type) -> Callable[..., None]:
    """Compile an ``__init__`` with the dataclass's signature whose body
    stores each field with its slot descriptor's ``__set__``."""
    namespace: Dict[str, Any] = {"_FACTORY": object()}
    positional: List[str] = []
    keyword_only: List[str] = []
    body: List[str] = []
    for index, spec in enumerate(fields(cls)):
        name = spec.name
        namespace[f"_store{index}"] = cls.__dict__[name].__set__
        if spec.default is not MISSING:
            namespace[f"_default{index}"] = spec.default
        if spec.default_factory is not MISSING:
            namespace[f"_factory{index}"] = spec.default_factory
        if spec.init:
            if spec.default is not MISSING:
                parameter = f"{name}=_default{index}"
            elif spec.default_factory is not MISSING:
                parameter = f"{name}=_FACTORY"
            else:
                parameter = name
            (keyword_only if spec.kw_only else positional).append(parameter)
            if spec.default_factory is not MISSING:
                value = f"_factory{index}() if {name} is _FACTORY else {name}"
            else:
                value = name
        elif spec.default is not MISSING:
            value = f"_default{index}"
        elif spec.default_factory is not MISSING:
            value = f"_factory{index}()"
        else:
            continue  # init=False and no default: left unset, as dataclass does
        body.append(f"    _store{index}(self, {value})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    parameters = ["self", *positional] + (["*", *keyword_only] if keyword_only else [])
    source = f"def __init__({', '.join(parameters)}):\n" + ("\n".join(body) or "    pass")
    exec(compile(source, f"<record __init__ of {cls.__qualname__}>", "exec"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    # InitVar pseudo-fields (which ``fields()`` does not list) would vanish
    # from the signature: refuse what this generator cannot reproduce.
    expected = list(inspect.signature(cls.__init__).parameters)
    if list(inspect.signature(init).parameters) != expected:
        raise TypeError(f"@record cannot build {cls.__qualname__}.__init__{expected}")
    return init
