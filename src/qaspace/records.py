"""The one base class of the package's frozen value types.

A subclass declares its fields as class annotations, in order, each with an
optional default as its class attribute.  It gets what a frozen dataclass
would, with no code generated: an __init__ that binds the fields, by position
or keyword with the checks and TypeError texts of a signature, and then calls
__post_init__; __eq__ and __hash__ over the field tuple, the hash computed on
first use and kept as _hash; the dataclass __repr__; pickling through
__init__; and FrozenInstanceError on any assignment or deletion
(__post_init__ sets attributes with object.__setattr__).  _fields names the
fields, _astuple() and _asdict() give their values.  A subclass may declare
__slots__, with a "_hash" slot, and its own __init__, as StepFunction does.
"""

from operator import attrgetter

from .errors import FrozenInstanceError


class Record:
    __slots__ = ()
    _fields: tuple = ()
    _field_set: frozenset = frozenset()
    _defaults: dict = {}  # the defaults of the fields that have one

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._field_set = frozenset(names)
        cls._defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        get = attrgetter(*names)  # a record's field tuple
        cls._get = staticmethod(get if len(names) > 1 else lambda rec: (get(rec),))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):  # keywords or defaults: bind them in order
            given = {**self._defaults, **kwargs}
            given.update(zip(names, args))
            if (len(args) > len(names) or given.keys() != self._field_set
                    or args and not kwargs.keys().isdisjoint(names[: len(args)])):
                raise self._unbound(args, kwargs)
            args = map(given.__getitem__, names)
        # one attribute at a time, never through __dict__: an instance whose
        # __dict__ was never read keeps the interpreter's fast attribute reads
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _unbound(cls, args, kwargs) -> TypeError:
        """The TypeError of a signature of the fields that cannot bind these
        arguments, from the first of CPython's checks that fails, in its text."""
        names, where = cls._fields, f"{cls.__qualname__}.__init__()"
        for name in kwargs:
            if name not in names:
                return TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in names[: len(args)]:
                return TypeError(f"{where} got multiple values for argument {name!r}")
        if len(args) > len(names):
            least = f"from {len(names) - len(cls._defaults) + 1} to " if cls._defaults else ""
            return TypeError(f"{where} takes {least}{len(names) + 1} positional arguments "
                             f"but {len(args) + 1} were given")
        missing = [repr(name) for name in names[len(args):]
                   if name not in cls._defaults and name not in kwargs]
        listed = " and ".join(missing) if len(missing) < 3 else (
            ", ".join(missing[:-1]) + ", and " + missing[-1])
        return TypeError(f"{where} missing {len(missing)} required positional "
                         f"argument{'s' * (len(missing) > 1)}: {listed}")

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
