"""Frozen value records over __slots__, without the dataclasses module.

Importing `dataclasses` pulls in `inspect` (with `ast`, `dis` and
`tokenize`), and each decorated class has its methods compiled by `exec`
at import time.  For the package's records that was most of the import
cost of a one-shot CLI query, so they derive from Record instead, which
holds the one equality and hash all of them share.
"""

from operator import attrgetter

# stores a field from a record's __init__, past the blocked __setattr__
setfield = object.__setattr__


class Record:
    """Base of an immutable value type.

    A subclass names its fields in ``__slots__``, in constructor order, and
    its ``__init__`` stores them with ``setfield``; slots whose names start
    with an underscore are not fields, and may hold tables the constructor
    derives from them.  The base gives every subclass the same equality,
    true only against its own class and comparing the fields in order, and
    a hash over the fields (the bare value for a one-field record).  It
    blocks assignment and deletion with AttributeError, pickles through the
    constructor, so those tables are built again, and gives the repr
    ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # the field values: the bare value for one field, else a tuple
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # no module of the package pickles a record, but copy and pickle
        # should work on a value: they would restore the slots through the
        # blocked __setattr__, so an instance is rebuilt, and validated
        # again, by its constructor
        return type(self), tuple(getattr(self, name) for name in self._fields)
