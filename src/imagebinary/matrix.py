"""Immutable exact matrices over QQ or F2, plus the linear algebra the
automata algorithms need: products, Kronecker products, and rank,
inversion and unique solving through one fraction-free (Bareiss)
elimination.

A matrix is frozen at construction: rows are tuples, and the sparse view
``nonzero_rows`` is computed once, on first use.  Vectors travelling
through the span-exploration algorithms are kept as sparse dicts
{index: scalar}; ``CoordBasis``, the incremental basis with coordinate
recovery that those algorithms grow one vector at a time, lives here
too.
"""

from __future__ import annotations

from math import lcm

from .errors import InputError, InternalInvariantError
from .fields import QQ

__all__ = ["Matrix", "CoordBasis"]


class Matrix:
    """Immutable row-major matrix with entries from one field.  Build it
    from rows with ``Matrix(field, rows)`` or from its nonzero entries
    with ``Matrix.from_entries``."""

    __slots__ = ("field", "nrows", "ncols", "rows", "_nonzero")

    def __init__(self, field, rows):
        rows = tuple(tuple(r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise InputError("ragged matrix rows")
        init = object.__setattr__
        init(self, "field", field)
        init(self, "rows", rows)
        init(self, "nrows", len(rows))
        init(self, "ncols", ncols)
        init(self, "_nonzero", None)

    def __setattr__(self, name, value):
        raise TypeError("Matrix is immutable")

    def __delattr__(self, name):
        raise TypeError("Matrix is immutable")

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls.from_entries(field, nrows, ncols, {})

    @classmethod
    def from_entries(cls, field, nrows, ncols, entries):
        """Build from {(i, j): x}; entries not given are zero."""
        rows = [[field.zero] * ncols for _ in range(nrows)]
        for (i, j), x in entries.items():
            rows[i][j] = x
        return cls(field, rows)

    @classmethod
    def identity(cls, field, n):
        return cls.from_entries(field, n, n, {(i, i): field.one for i in range(n)})

    @classmethod
    def from_ints(cls, field, rows):
        """Build from nested ints (or anything ``field.of`` accepts)."""
        return cls(field, [[field.of(x) for x in r] for r in rows])

    @classmethod
    def row_vector(cls, field, entries):
        return cls(field, [entries])

    @classmethod
    def col_vector(cls, field, entries):
        return cls(field, [[e] for e in entries])

    def nonzero_rows(self):
        """Per row, the tuple of (column, entry) pairs with a nonzero
        entry, in column order; computed once per matrix."""
        nz = self._nonzero
        if nz is None:
            nz = tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in self.rows)
            object.__setattr__(self, "_nonzero", nz)
        return nz

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return "Matrix(%r, %r)" % (self.field, self.rows)

    def transpose(self):
        return Matrix(self.field, zip(*self.rows))

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(
            self.field,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(
            self.field,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return Matrix(self.field, [[-a for a in r] for r in self.rows])

    def scale(self, c):
        return Matrix(self.field, [[c * a for a in r] for r in self.rows])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise InputError(
                "shape mismatch in product: %dx%d times %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        zero = self.field.zero
        ocols = other.ncols
        brows = other.nonzero_rows()
        out = []
        for arow in self.nonzero_rows():
            acc = [zero] * ocols
            for k, a in arow:
                for j, b in brows[k]:
                    acc[j] = acc[j] + a * b
            out.append(acc)
        return Matrix(self.field, out)

    def kron(self, other):
        """Kronecker product; block (i,j) is self[i,j] * other."""
        zero = self.field.zero
        out = []
        for arow in self.rows:
            for brow in other.rows:
                line = []
                for a in arow:
                    if not a:
                        line.extend([zero] * other.ncols)
                    else:
                        line.extend([a * b for b in brow])
                out.append(line)
        return Matrix(self.field, out)

    def is_zero(self):
        return not any(self.nonzero_rows())

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise InputError("shape mismatch")

    # --- elimination based routines ---

    def rank(self):
        """Rank by fraction-free elimination (exact in either field)."""
        return _eliminate(self.field, self.rows, self.ncols)[1]

    def inverse(self):
        if self.nrows != self.ncols:
            raise InputError("only square matrices can be inverted")
        n, field = self.nrows, self.field
        ident = Matrix.identity(field, n).rows
        work, rank = _eliminate(field, [[*r, *e] for r, e in zip(self.rows, ident)], n)
        if rank < n:
            raise InputError("matrix is singular")
        return Matrix(field, zip(*(_back_substitute(field, work, n, n + k) for k in range(n))))

    def solve_unique(self, rhs):
        """Solve self * x = rhs where self may have extra rows.

        Requires full column rank and a consistent system; anything else
        raises InternalInvariantError since callers only assemble systems
        that are provably uniquely solvable.
        """
        if rhs.nrows != self.nrows or rhs.ncols != 1:
            raise InputError("right hand side shape mismatch")
        n, field = self.ncols, self.field
        work, rank = _eliminate(field, [[*r, *b] for r, b in zip(self.rows, rhs.rows)], n)
        if rank < n:
            raise InternalInvariantError("linear system does not have full column rank")
        if any(row[n] for row in work[n:]):
            raise InternalInvariantError("inconsistent linear system")
        return Matrix.col_vector(field, _back_substitute(field, work, n, n))


def _eliminate(field, rows, ncols):
    """Fraction-free (Bareiss) forward elimination on the first ``ncols``
    columns of ``rows``, carrying any later columns along; returns the
    echelon rows and the rank, pivot k sitting in row k.

    Rational rows are scaled to integers by the lcm of their denominators,
    and each update (p * row - f * pivot_row) // previous pivot divides
    exactly; over F2 every pivot is one.
    """
    if field is QQ:
        work, prev = [_integral(r) for r in rows], 1
    else:
        work, prev = [list(r) for r in rows], field.one
    m = len(work)
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, m) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        p = prow[col]
        tail = prow[col:]
        for r in range(rank + 1, m):
            row = work[r]
            f = row[col]
            row[col:] = [(p * x - f * y) // prev for x, y in zip(row[col:], tail)]
        prev = p
        rank += 1
    return work, rank


def _back_substitute(field, work, n, k):
    """The x, in the field, that solves the first n echelon rows (pivots
    on the diagonal) against their column k."""
    x = [None] * n
    for r in range(n - 1, -1, -1):
        row = work[r]
        acc = field.of(row[k])
        for j in range(r + 1, n):
            if row[j]:
                acc = acc - row[j] * x[j]
        x[r] = acc / row[r]
    return x


def _integral(row):
    """A rational row times the lcm of its denominators: a row of ints."""
    den = lcm(*{x.denominator for x in row})
    return [x.numerator * (den // x.denominator) for x in row]


class CoordBasis:
    """Incrementally built basis of sparse vectors with coordinate recovery.

    Vectors are dicts {index: nonzero scalar}.  ``add`` returns the new
    basis index when the vector extends the span and None when it is
    dependent; ``coords`` expresses a vector as a combination of the
    vectors that were successfully added.
    """

    def __init__(self, field):
        self.field = field
        self.reduced = []  # reduced vectors, pivot normalised to one
        self.pivots = []  # pivot index of each reduced vector
        self.exprs = []  # reduced[i] as {basis index: coefficient}

    def __len__(self):
        return len(self.reduced)

    def _reduce(self, vec):
        """Write vec as residual + sum(used[k] * basis[k]); return both."""
        v = dict(vec)
        used = {}
        zero = self.field.zero
        for i, p in enumerate(self.pivots):
            c = v.get(p)
            if not c:
                continue
            for j, x in self.reduced[i].items():
                nv = v.get(j, zero) - c * x
                if not nv:
                    v.pop(j, None)
                else:
                    v[j] = nv
            for k, x in self.exprs[i].items():
                nv = used.get(k, zero) + c * x
                if not nv:
                    used.pop(k, None)
                else:
                    used[k] = nv
        return v, used

    def add(self, vec):
        residual, used = self._reduce(vec)
        if not residual:
            return None
        m = len(self.reduced)
        pivot = min(residual)
        inv = self.field.one / residual[pivot]
        self.reduced.append({j: x * inv for j, x in residual.items()})
        self.pivots.append(pivot)
        # residual = vec - sum(used); scale by inv and solve for vec's slot
        expr = {k: -inv * x for k, x in used.items() if -inv * x}
        expr[m] = inv
        self.exprs.append(expr)
        return m

    def contains(self, vec):
        residual, _ = self._reduce(vec)
        return not residual

    def coords(self, vec):
        """Coordinates of vec w.r.t. the added basis vectors, or None."""
        residual, used = self._reduce(vec)
        if residual:
            return None
        out = [self.field.zero] * len(self.reduced)
        for k, x in used.items():
            out[k] = x
        return out
