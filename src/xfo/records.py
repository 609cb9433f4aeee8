"""Frozen, slotted records whose ``__init__`` sets each slot through its member descriptor."""

from dataclasses import MISSING, dataclass, fields


def record(cls):
    """``dataclass(frozen=True, slots=True)`` with ``slot_writer``'s ``__init__``, same signature;
    as with dataclass, a class that defines ``__init__`` keeps its own."""
    own_init = "__init__" in vars(cls)
    cls = dataclass(frozen=True, slots=True)(cls)
    if not own_init:
        if any(not f.init or f.default_factory is not MISSING for f in fields(cls)):
            raise TypeError(f"record {cls.__qualname__}: a field without init or with a factory")
        generated, cls.__init__ = cls.__init__, slot_writer(cls)
        for attr in ("__defaults__", "__kwdefaults__", "__annotations__"):
            setattr(cls.__init__, attr, getattr(generated, attr))
    return cls


def slot_writer(cls):
    """``__init__`` without defaults: each slot set through its descriptor, then ``__post_init__``."""
    positional = [f.name for f in fields(cls) if not f.kw_only]
    keyword = [f.name for f in fields(cls) if f.kw_only]
    params = ", ".join(["self", *positional] + (["*", *keyword] if keyword else []))
    body = [f"__set_{name}(self, {name})" for name in positional + keyword]
    body += ["self.__post_init__()"] * hasattr(cls, "__post_init__")
    scope = {"__name__": cls.__module__} | {
        f"__set_{name}": getattr(cls, name).__set__ for name in positional + keyword}
    source = f"def __init__({params}):\n    " + "\n    ".join(body)
    exec(compile(source, f"<record {cls.__module__}.{cls.__qualname__}>", "exec"), scope)
    return scope["__init__"]
