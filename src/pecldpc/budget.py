"""The work budget: the time and memory one call may take.

Time is counted in cells.  A cell is about one gathered and multiplied
draw of the density-evolution check half, ~2.5 ns on one x86-64 core;
a numpy call costs ``CALL`` cells, and ``ENTRIES`` matrix-vector entries
cost one.  A call (a threshold search, a sumset law, a check table) may
charge ``CELLS``; memory is bounded by ``BYTES``, and every other limit
is derived from the two.

Each costly path charges the cells it will spend before it spends them,
so whether an input is refused depends on the input alone, never on a
timer or on what a cache holds.  A call opens a budget (``scope``)
unless its caller has one open, so a search's tables, laws and probes
draw on the search's budget, and what they build (check tables,
coverage matrices, the exact law's orbit steps) is built once per
budget, and each coverage walk is walked on from the longest state the
budget holds: every budget starts cold.  The size chain, kept for the
process, is charged once per budget as if it were built.
"""

from contextlib import contextmanager
from contextvars import ContextVar

CELLS = 2**31  # ~5 s
BYTES = 2**30
CALL = 2**9
ENTRIES = 4
# items a caller lists (trials, eps grid points) cost four numpy calls
# each at the least
ITEMS = CELLS // (4 * CALL)


def over(need: int, limit: int, what: str, error: type = ValueError) -> None:
    """Refuse, by raising ``error``, a need above its limit; ``what``
    names the need."""
    if need > limit:
        raise error(f"{what}, above the limit of {limit}")


class Budget:
    """The cells one call has left, and the tables it has built."""

    def __init__(self):
        self.left, self.tables = CELLS, {}

    def charge(self, cells: int, what: str) -> None:
        """Take ``cells`` for ``what``; ValueError if fewer are left."""
        over(cells, self.left, f"{what} would pass the work cap ({CELLS} cells): it takes {cells}")
        self.left -= cells


_open: ContextVar[Budget | None] = ContextVar("budget", default=None)


def current() -> Budget:
    """The open budget, or a fresh one that no other call shares."""
    return _open.get() or Budget()


@contextmanager
def scope():
    """The open budget, or a fresh one for the duration of the block."""
    token = _open.set(current())
    try:
        yield _open.get()
    finally:
        _open.reset(token)


def table(build, *args):
    """``build(*args)``, built (and charged) once per open budget."""
    with scope() as budget:
        if (build, args) not in budget.tables:
            budget.tables[build, args] = build(*args)
        return budget.tables[build, args]
