"""Frozen, the base class of every immutable value in the package.

A subclass declares its fields as annotations of its own body, in
order, each with its default value if it has one, and gets:

- _fields, the tuple of their names;
- an __init__ taking them positionally or by keyword that then calls
  __post_init__, if the class has one (a class that defines __init__
  itself keeps it, and stores its fields with object.__setattr__);
- the repr Name(field=value, ...), and equality and a hash over the
  field values, where instances of two classes never compare equal;
- no attribute assignment or deletion after __init__.

That is what @dataclass(frozen=True) gives, without the cost of
importing dataclasses and building each class through it.
"""

_set = object.__setattr__


class Frozen:
    _fields = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        for name, method in _written_out(cls).items():
            if name not in cls.__dict__:
                setattr(cls, name, method)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _written_out(cls) -> dict:
    """__init__ and _values (the tuple of field values) written out for
    cls's fields, as fast as hand-written ones: each field is one store
    in __init__, where a default is a keyword default, and one load in
    _values."""
    fields = cls._fields
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    params = "".join(f", {name}=_defaults[{name!r}]" if name in defaults else f", {name}"
                     for name in fields)
    init = [f"_set(self, {name!r}, {name})" for name in fields]
    if hasattr(cls, "__post_init__"):
        init.append("self.__post_init__()")
    values = "".join(f"self.{name}, " for name in fields)
    namespace = {"_set": _set, "_defaults": defaults}
    exec(f"def __init__(self{params}):\n    " + "\n    ".join(init or ["pass"])
         + f"\ndef _values(self):\n    return ({values})\n", namespace)
    methods = {name: namespace[name] for name in ("__init__", "_values")}
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
    return methods
