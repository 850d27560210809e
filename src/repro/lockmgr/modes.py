"""Lock modes, the compatibility matrix and the conversion lattice.

We implement the six classic multi-granularity modes used by DB2 for
tables and rows:

=====  =============================  ==========================
Mode   Name                           Typical use
=====  =============================  ==========================
IS     intent share                   table lock while reading rows
IX     intent exclusive               table lock while updating rows
S      share                          read a whole table / one row
SIX    share + intent exclusive       scan a table while updating some rows
U      update                         read with intent to update (row)
X      exclusive                      write (row or table)
=====  =============================  ==========================

Compatibility follows the standard Gray et al. multi-granularity matrix
(with DB2's U mode: U is compatible with S/IS readers but not with
another U, so two intending updaters serialize).
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Tuple


class LockMode(enum.Enum):
    """A lock mode; ``strength`` orders modes roughly by restrictiveness."""

    IS = "IS"
    IX = "IX"
    S = "S"
    SIX = "SIX"
    U = "U"
    X = "X"

    @property
    def strength(self) -> int:
        return _STRENGTH[self]

    @property
    def is_intent(self) -> bool:
        """True for the pure intent modes IS and IX."""
        return self in (LockMode.IS, LockMode.IX)

    @property
    def is_write(self) -> bool:
        """True for modes that permit modification (IX, SIX, U, X).

        Used to decide whether escalation must target an X table lock.
        """
        return self in (LockMode.IX, LockMode.SIX, LockMode.U, LockMode.X)

    def __repr__(self) -> str:
        return f"LockMode.{self.name}"


_STRENGTH: Dict[LockMode, int] = {
    LockMode.IS: 1,
    LockMode.IX: 2,
    LockMode.S: 3,
    LockMode.SIX: 4,
    LockMode.U: 5,
    LockMode.X: 6,
}

#: Pairs of modes that may be held concurrently by different applications.
_COMPATIBLE: FrozenSet[Tuple[LockMode, LockMode]] = frozenset(
    {
        (LockMode.IS, LockMode.IS),
        (LockMode.IS, LockMode.IX),
        (LockMode.IS, LockMode.S),
        (LockMode.IS, LockMode.SIX),
        (LockMode.IS, LockMode.U),
        (LockMode.IX, LockMode.IX),
        (LockMode.S, LockMode.S),
        (LockMode.S, LockMode.U),
    }
)


#: Width of one per-mode holder count in a lock object's packed
#: ``counts`` int (field ``i`` belongs to the ``i``-th mode).  A full
#: field would carry into its neighbour, so
#: ``LockObject.check_invariants`` fails on a saturated one.
COUNT_FIELD_BITS = 16
COUNT_FIELD_MAX = (1 << COUNT_FIELD_BITS) - 1


# Performance: the compatibility check sits on the hottest path of the
# simulation, so the symmetric matrix is baked into per-mode bitmasks
# (attribute lookups avoid enum hashing entirely): ``_bit`` /
# ``_compat_mask`` answer "may these two modes coexist", ``_unit`` (one
# holder of this mode in the packed counts) / ``_conflict_fields`` (the
# count fields of every mode this one conflicts with) answer "does any
# holder conflict" in one AND.
def _bake_bitmasks() -> None:
    for i, mode in enumerate(LockMode):
        mode._bit = 1 << i  # type: ignore[attr-defined]
        mode._unit = 1 << (i * COUNT_FIELD_BITS)  # type: ignore[attr-defined]
    for mode in LockMode:
        mask = 0
        conflict_fields = 0
        for other in LockMode:
            if (mode, other) in _COMPATIBLE or (other, mode) in _COMPATIBLE:
                mask |= other._bit  # type: ignore[attr-defined]
            else:
                conflict_fields |= other._unit * COUNT_FIELD_MAX  # type: ignore[attr-defined]
        mode._compat_mask = mask  # type: ignore[attr-defined]
        mode._conflict_fields = conflict_fields  # type: ignore[attr-defined]


_bake_bitmasks()


def compatible(held: LockMode, requested: LockMode) -> bool:
    """True when ``requested`` may be granted alongside ``held``.

    The matrix is the symmetric closure of the classic multi-granularity
    matrix with (S, U) compatible and (U, U), (U, X) incompatible: a U
    holder tolerates share readers, but two intending updaters conflict.
    """
    return bool(held._compat_mask & requested._bit)  # type: ignore[attr-defined]


#: Least upper bound for lock conversion.  When an application already
#: holds mode A on a resource and requests mode B, it ends up holding
#: sup(A, B).  This is the classic conversion lattice: IS < {IX, S} ;
#: sup(IX, S) = SIX ; U behaves as a read lock upgradeable to X.
_SUPREMUM: Dict[Tuple[LockMode, LockMode], LockMode] = {}


def _fill_supremum() -> None:
    order = {
        LockMode.IS: {LockMode.IS},
        LockMode.IX: {LockMode.IS, LockMode.IX},
        LockMode.S: {LockMode.IS, LockMode.S},
        LockMode.U: {LockMode.IS, LockMode.S, LockMode.U},
        LockMode.SIX: {LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX},
        LockMode.X: set(LockMode),
    }

    def leq(a: LockMode, b: LockMode) -> bool:
        return a in order[b]

    for a in LockMode:
        for b in LockMode:
            candidates = [m for m in LockMode if leq(a, m) and leq(b, m)]
            best = min(candidates, key=lambda m: len(order[m]))
            _SUPREMUM[(a, b)] = best


_fill_supremum()


#: Number of lock modes (the side of the supremum table).
N_MODES = len(LockMode)

# Index-table variant of supremum for the hot path, plus the
# per-member attributes the manager's grant path reads directly:
# ``_idx`` (row/column in that table), ``_covers_mask`` (bits of the
# modes this one already grants the rights of) and ``_intent`` (the
# table intent mode a row lock of this mode needs).  Attribute reads on
# the member avoid both a function call and the enum metaclass.
def _bake_tables() -> None:
    modes = list(LockMode)
    for i, mode in enumerate(modes):
        mode._idx = i  # type: ignore[attr-defined]
    sup_table = [[None] * N_MODES for _ in range(N_MODES)]
    for a in modes:
        covers_mask = 0
        for b in modes:
            sup = _SUPREMUM[(a, b)]
            sup_table[a._idx][b._idx] = sup  # type: ignore[attr-defined]
            if sup is a:
                covers_mask |= b._bit  # type: ignore[attr-defined]
        a._covers_mask = covers_mask  # type: ignore[attr-defined]
        # Reading rows (S/IS row locks) needs IS on the table; any
        # modifying row mode needs IX.
        a._intent = (  # type: ignore[attr-defined]
            LockMode.IS if a in (LockMode.S, LockMode.IS) else LockMode.IX
        )
    global _SUP_TABLE
    _SUP_TABLE = sup_table


_SUP_TABLE: list = []
_bake_tables()


def supremum(a: LockMode, b: LockMode) -> LockMode:
    """The weakest mode at least as strong as both ``a`` and ``b``."""
    return _SUP_TABLE[a._idx][b._idx]  # type: ignore[attr-defined]


def covers(held: LockMode, requested: LockMode) -> bool:
    """True when holding ``held`` already grants ``requested``'s rights."""
    return bool(held._covers_mask & requested._bit)  # type: ignore[attr-defined]


def intent_mode_for_row(row_mode: LockMode) -> LockMode:
    """The table intent mode required before taking a row lock.

    Reading rows (S/IS row locks) needs IS on the table; any modifying
    row mode (U, X) needs IX.
    """
    return row_mode._intent  # type: ignore[attr-defined]


def escalation_target_mode(row_modes) -> LockMode:
    """Table mode that subsumes a set of row modes during escalation.

    If any row lock is a write lock the table must be locked X, else S
    suffices (paper section 1: escalation promotes "one or more row
    level locks to either a page level lock or a table level lock").
    """
    modes = list(row_modes)
    if not modes:
        raise ValueError("cannot escalate zero row locks")
    if any(m.is_write for m in modes):
        return LockMode.X
    return LockMode.S
