"""The one base class of the package's frozen value types.

A subclass declares its fields as class annotations, in order, each with an
optional default as its class attribute (defaults last).  It gets what a
frozen dataclass would: an __init__ that binds the fields and then calls
__post_init__; __eq__ and __hash__ over the field tuple, the hash computed on
first use and kept as _hash; the dataclass __repr__; pickling through
__init__; and FrozenInstanceError on any assignment or deletion
(__post_init__ sets attributes with object.__setattr__).  No code is
generated at import: a build by keyword or with a default binds through
def __init__(self, <fields>), compiled on the class's first such build, so
it gets CPython's own TypeError texts.  _fields names the fields, _astuple()
and _asdict() give their values.  A subclass may declare __slots__, with a
"_hash" slot, and its own __init__, as StepFunction does.
"""

from operator import attrgetter

from .errors import FrozenInstanceError


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        get = attrgetter(*names)  # a record's field tuple
        cls._get = staticmethod(get if len(names) > 1 else lambda rec: (get(rec),))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):  # keywords or defaults
            args = self._bind(None, *args, **kwargs)
        # one attribute at a time, never through __dict__: an instance whose
        # __dict__ was never read keeps the interpreter's fast attribute reads
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, *args, **kwargs) -> tuple:
        """The field tuple that def __init__(self, <fields>), compiled on the
        class's first call and kept as its _binder, binds the arguments to."""
        binder = cls.__dict__.get("_binder")
        if binder is None:
            names = ", ".join(cls._fields)
            scope = {}
            exec(f"def __init__(self, {names}): return {names},", scope)
            binder = scope["__init__"]
            binder.__qualname__ = f"{cls.__qualname__}.__init__"
            binder.__defaults__ = tuple(cls.__dict__[name] for name in cls._fields
                                        if name in cls.__dict__)
            cls._binder = binder
        return binder(*args, **kwargs)

    def __post_init__(self):
        pass

    def _astuple(self) -> tuple:
        return self._get(self)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._get(self)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._get(self) == other._get(other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # hashed once, on first use: a cache key hashes per call
            value = hash(self._get(self))
            object.__setattr__(self, "_hash", value)
            return value

    def __repr__(self):
        shown = ", ".join(map("{}={!r}".format, self._fields, self._get(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        # rebuilt through __init__, so that __post_init__ derives what it derives
        return self.__class__, self._get(self)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
