"""Lockable resource identifiers.

Resources form a two-level hierarchy: tables contain rows.  A resource
id is an immutable value object.  A lock object is keyed by the plain
tuple each one is (``LockKey``), so a row's key is built by
:func:`row_key` without a ``ResourceId`` instance.  Page-level
resources are included for completeness (some vendors escalate row to
page before table; DB2 escalates straight to table locks, which is what
the manager does by default).
"""

from __future__ import annotations

import enum
from functools import lru_cache
from operator import itemgetter
from typing import Optional, Tuple


class ResourceKind(enum.Enum):
    TABLE = "table"
    PAGE = "page"
    ROW = "row"


#: Stable small-int code per kind, the first element of a ResourceId.
#: The id must contain only ints: int hashes are pure functions of the
#: value, while str hashes depend on PYTHONHASHSEED (and hash(None) on
#: the interpreter), which would make set-of-ResourceId iteration order
#: -- and therefore event ordering -- vary between processes.
_KIND_CODE = {ResourceKind.TABLE: 0, ResourceKind.PAGE: 1, ResourceKind.ROW: 2}
_KINDS = tuple(_KIND_CODE)
#: ``ROW_CODE`` is public for the lock manager, which tests
#: ``resource[0] == ROW_CODE`` once per grant and per release instead
#: of paying for the ``is_row`` property call.
_TABLE, _PAGE, ROW_CODE = _KIND_CODE.values()

_new = tuple.__new__

#: A lock key: ``(kind_code, table_id, page_id | -1, row_id | -1)``.
#: A :class:`ResourceId` is one; so is the plain tuple :func:`row_key`
#: returns, which is equal to the row's ``ResourceId`` and hashes the same.
LockKey = Tuple[int, int, int, int]


class ResourceId(tuple):
    """Identifies one lockable object.

    The tuple ``(kind_code, table_id, page_id | -1, row_id | -1)``
    itself: resource ids are dictionary keys on the lock manager's
    hottest path, and a tuple subclass hashes and compares in C, where
    a Python ``__hash__``/``__eq__`` pair was a measurable share of
    every grant.  Instances are immutable (no ``__dict__``, no slots).

    The hash is a pure function of the id's value (an all-int tuple),
    so any hash-ordered container of resource ids iterates identically
    in every process -- a requirement for cross-process determinism of
    the simulation (see docs/PERFORMANCE.md).
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: ResourceKind,
        table_id: int,
        page_id: Optional[int] = None,
        row_id: Optional[int] = None,
    ) -> "ResourceId":
        if table_id < 0:
            raise ValueError(f"table_id must be non-negative, got {table_id}")
        if page_id is not None and page_id < 0:
            raise ValueError(f"page_id must be non-negative, got {page_id}")
        if row_id is not None and row_id < 0:
            raise ValueError(f"row_id must be non-negative, got {row_id}")
        if kind is ResourceKind.TABLE:
            if page_id is not None or row_id is not None:
                raise ValueError("table resource must not carry page/row ids")
        elif kind is ResourceKind.PAGE:
            if page_id is None or row_id is not None:
                raise ValueError("page resource needs page_id and no row_id")
        elif kind is ResourceKind.ROW:
            if row_id is None:
                raise ValueError("row resource needs row_id")
        return _new(
            cls,
            (
                _KIND_CODE[kind],
                table_id,
                -1 if page_id is None else page_id,
                -1 if row_id is None else row_id,
            ),
        )

    def __getnewargs__(self):
        # copy/pickle rebuild through __new__'s signature, not tuple's.
        return self.kind, self.table_id, self.page_id, self.row_id

    table_id = property(itemgetter(1))

    @property
    def kind(self) -> ResourceKind:
        return _KINDS[self[0]]

    @property
    def page_id(self) -> Optional[int]:
        return None if self[2] < 0 else self[2]

    @property
    def row_id(self) -> Optional[int]:
        return None if self[3] < 0 else self[3]

    @property
    def is_table(self) -> bool:
        return self[0] == _TABLE

    @property
    def is_row(self) -> bool:
        return self[0] == ROW_CODE

    def table(self) -> "ResourceId":
        """The table resource containing this resource."""
        if self[0] == _TABLE:
            return self
        return table_resource(self[1])

    def __repr__(self) -> str:
        if self[0] == _TABLE:
            return f"T{self[1]}"
        if self[0] == _PAGE:
            return f"T{self[1]}.P{self[2]}"
        return f"T{self[1]}.R{self[3]}"


@lru_cache(maxsize=None)
def table_resource(table_id: int) -> ResourceId:
    """Resource id for a whole table (cached; tables are few)."""
    return ResourceId(ResourceKind.TABLE, table_id)


def row_key(table_id: int, row_id: int) -> LockKey:
    """A row's lock key (a contended row's ``LockObject.key``): the
    plain tuple that ``row_resource(table_id, row_id)`` is, equal to it
    and with the same hash.  An exact tuple of ints is untracked by the
    cyclic collector at its first pass, where a ``ResourceId`` is a
    second allocation that stays tracked until it is freed.  The lock
    table itself files a row by its table id and row id, with no key.
    """
    if table_id < 0:
        raise ValueError(f"table_id must be non-negative, got {table_id}")
    if row_id < 0:
        raise ValueError(f"row_id must be non-negative, got {row_id}")
    return (ROW_CODE, table_id, -1, row_id)


def row_resource(table_id: int, row_id: int) -> ResourceId:
    """Resource id for one row of a table."""
    return _new(ResourceId, row_key(table_id, row_id))


def resource_of(key: LockKey) -> ResourceId:
    """The resource id a lock-table key stands for (prints ``T0.R7``)."""
    return _new(ResourceId, key)


def page_resource(table_id: int, page_id: int) -> ResourceId:
    """Resource id for one page of a table."""
    return ResourceId(ResourceKind.PAGE, table_id, page_id=page_id)
