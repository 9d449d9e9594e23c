"""Immutable exact matrices over QQ or F2, plus the linear algebra the
automata algorithms need: products, Kronecker products, and rank,
inversion and unique solving through one elimination (Bareiss over QQ,
xor over F2) and one fraction-free back substitution.  ``solve_rows``
is the checked unique solve that ``solve_unique`` and the model
checker's block solve share.

``CoordBasis``, the incremental basis with coordinate recovery that the
span-exploration algorithms grow one vector at a time, lives here too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import InputError, InternalInvariantError
from .fields import GF2, QQ

__all__ = ["Matrix", "CoordBasis"]


class Matrix:
    """Immutable row-major matrix with entries from one field, built from
    dense rows (``Matrix(field, rows)``), nonzero entries (``from_entries``)
    or an integer view (``from_int_rows``, which fixtures, embeddings and
    ``kdis`` build with).  Every matrix stores its canonical integer
    view (``int_rows``: the nonzero entries times one common denominator)
    from construction, and products, elimination, equality and hashing
    read it; the sparse ``nonzero_rows`` and the dense ``rows`` are kept
    when the constructor holds them and otherwise built on first read."""

    __slots__ = ("field", "nrows", "ncols", "_rows", "_nonzero", "_ints")

    def __init__(self, field, rows):
        rows = tuple([tuple(r) for r in rows])
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise InputError("ragged matrix rows")
        _check_scalars(field, chain.from_iterable(rows))
        nz = tuple([tuple([(j, x) for j, x in enumerate(r) if x]) for r in rows])
        self._fill(field, len(rows), ncols, _int_view(field, nz), nz, rows)

    def _fill(self, field, nrows, ncols, ints, nonzero=None, rows=None):
        """Set the slots once: every matrix gets its integer view here."""
        for name, value in zip(self.__slots__, (field, nrows, ncols, rows, nonzero, ints)):
            object.__setattr__(self, name, value)
        return self

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
        _check_scalars(field, entries.values())
        rows = [[] for _ in range(nrows)]
        for (i, j), x in entries.items():
            if x:
                rows[i].append((j, x))
        nz = tuple([tuple(sorted(r)) for r in rows])
        return object.__new__(cls)._fill(field, nrows, ncols, _int_view(field, nz), nz)

    @classmethod
    def from_int_rows(cls, field, ncols, rows, den):
        """Build from an integer view: per row, (column, int) pairs in
        column order for int / den (den > 0), zeros left out.  Over QQ the
        view is brought to lowest terms; over F2 den is odd, ints mod 2."""
        if field is QQ:
            g = gcd(den, *(x for row in rows for _, x in row)) if den != 1 else 1
            if g > 1:
                rows, den = [[(j, x // g) for j, x in row] for row in rows], den // g
            rows = tuple([tuple(row) for row in rows])
        else:
            rows, den = tuple([tuple([(j, 1) for j, x in row if x & 1]) for row in rows]), 1
        return object.__new__(cls)._fill(field, len(rows), ncols, (rows, den))

    @classmethod
    def identity(cls, field, n):
        return cls.from_entries(field, n, n, {(i, i): field.one for i in range(n)})

    @classmethod
    def from_ints(cls, field, rows):
        """Build from nested ints (or anything ``field.of`` accepts)."""
        return cls(field, [[field.of(x) for x in r] for r in rows])

    @property
    def rows(self):
        """The dense rows, as tuples; built once per matrix."""
        if self._rows is None:
            dense = _dense(self.nonzero_rows(), self.ncols, self.field.zero)
            object.__setattr__(self, "_rows", tuple([tuple(row) for row in dense]))
        return self._rows

    def nonzero_rows(self):
        """Per row, the tuple of (column, entry) pairs with a nonzero
        entry, in column order; computed once per matrix."""
        nz = self._nonzero
        if nz is None:
            rows, den = self._ints
            frac = self.field.frac
            nz = tuple([tuple([(j, frac(x, den)) for j, x in row]) for row in rows])
            object.__setattr__(self, "_nonzero", nz)
        return nz

    def int_rows(self):
        """(rows, den): ``nonzero_rows`` with every entry x replaced by the
        int x * den, den the lcm of the entries' denominators; over F2 the
        entries are 1 and den is 1."""
        return self._ints

    def __getitem__(self, ij):
        i, j = ij
        return (self._rows or self.rows)[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field is other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.int_rows() == other.int_rows()
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.int_rows()))

    def __repr__(self):
        return "Matrix(%r, %r)" % (self.field, self.rows)

    def transpose(self):
        rows, den = self._ints
        cols = [[] for _ in range(self.ncols)]
        for i, row in enumerate(rows):
            for j, x in row:
                cols[j].append((i, x))
        return Matrix.from_int_rows(self.field, self.nrows, cols, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other on the integer views, over their common
        denominator (over F2 the ints are reduced mod 2)."""
        self._same_shape(other)
        self._same_field(other)
        (arows, da), (brows, db) = self._ints, other._ints
        den = lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        out = []
        for ra, rb in zip(arows, brows):
            acc = {j: x * fa for j, x in ra}
            for j, x in rb:
                acc[j] = acc.get(j, 0) + x * fb
            out.append([(j, x) for j, x in sorted(acc.items()) if x])
        return Matrix.from_int_rows(self.field, self.ncols, out, den)

    def __neg__(self):
        return self.scale(-self.field.one)

    def scale(self, c):
        """c times the matrix, for a scalar c of the field."""
        _check_scalars(self.field, [c])
        rows, den = self._ints
        num, cden = (c.numerator, c.denominator) if self.field is QQ else (c.v, 1)
        out = [[(j, x * num) for j, x in row] if num else [] for row in rows]
        return Matrix.from_int_rows(self.field, self.ncols, out, den * cden)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise InputError(
                "shape mismatch in product: %dx%d times %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        self._same_field(other)
        ocols = other.ncols
        arows, da = self.int_rows()
        brows, db = other.int_rows()
        out = []
        for arow in arows:
            acc = [0] * ocols
            for k, a in arow:
                for j, b in brows[k]:
                    acc[j] += a * b
            out.append([(j, x) for j, x in enumerate(acc) if x])
        return Matrix.from_int_rows(self.field, ocols, out, da * db)

    def kron(self, other):
        """Kronecker product; block (i,j) is self[i,j] * other."""
        self._same_field(other)
        arows, da = self.int_rows()
        brows, db = other.int_rows()
        nc = other.ncols
        out = [
            [(j * nc + k, a * b) for j, a in arow for k, b in brow]
            for arow in arows
            for brow in brows
        ]
        return Matrix.from_int_rows(self.field, self.ncols * nc, out, da * db)

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise InputError("shape mismatch")

    def _same_field(self, other):
        if other.field is not self.field:
            raise InputError("matrices over different fields")

    # --- elimination based routines ---

    def rank(self):
        """Rank by forward elimination of the integer view."""
        return _eliminate(self.field, _dense(self._ints[0], self.ncols), self.ncols)[1]

    def inverse(self):
        if self.nrows != self.ncols:
            raise InputError("only square matrices can be inverted")
        n, field = self.nrows, self.field
        rows, den = self._ints
        aug = [[*row, (n + i, den)] for i, row in enumerate(rows)]
        work, rank = _eliminate(field, _dense(aug, 2 * n), n)
        if rank < n:
            raise InputError("matrix is singular")
        cols = [_back_substitute(field, work, n, n + k) for k in range(n)]
        out = [[(k, ys[i]) for k, (ys, _d) in enumerate(cols) if ys[i]] for i in range(n)]
        return Matrix.from_int_rows(field, n, out, cols[0][1] if n else 1)

    def solve_unique(self, rhs):
        """Solve self * x = rhs where self may have extra rows, through
        ``solve_rows`` and its checks."""
        if rhs.nrows != self.nrows or rhs.ncols != 1:
            raise InputError("right hand side shape mismatch")
        n = self.ncols
        (arows, da), (brows, db) = self._ints, rhs._ints
        aug = [[(j, x * db) for j, x in a] + [(n, x * da) for _, x in b]
               for a, b in zip(arows, brows)]
        return Matrix(self.field, [[y] for y in solve_rows(self.field, _dense(aug, n + 1), n)])


def _check_scalars(field, entries):
    """Refuse any entry, zeros included, that is not an exact scalar of
    the field: an int or a Fraction over QQ, a GF2 over F2."""
    kinds = (int, Fraction) if field is QQ else GF2
    for t in set(map(type, entries)):
        if not issubclass(t, kinds):
            raise InputError("matrix entry of type %s is not a %r scalar" % (t.__name__, field))


def _int_view(field, nz):
    """The integer view (ints, den) of nonzero rows: over QQ each entry x
    becomes the int x * den, den the lcm of the denominators; over F2 the
    ints are 1 and den is 1."""
    if field is not QQ:
        return tuple([tuple([(j, 1) for j, _ in row]) for row in nz]), 1
    den = lcm(*{x.denominator for row in nz for _, x in row})
    ints = [tuple([(j, x.numerator * (den // x.denominator)) for j, x in row]) for row in nz]
    return tuple(ints), den


def _dense(rows, ncols, zero=0):
    """Sparse (column, entry) rows as dense lists of ncols entries."""
    out = [[zero] * ncols for _ in rows]
    for dense, row in zip(out, rows):
        for j, x in row:
            dense[j] = x
    return out


def solve_rows(field, rows, n):
    """The unique x, in the field, with A x = b for augmented int rows
    [A | b] (A has n columns and maybe extra rows; over F2, bits).
    Without full column rank or consistency it raises
    InternalInvariantError: callers only assemble uniquely solvable systems."""
    work, rank = _eliminate(field, rows, n)
    if rank < n:
        raise InternalInvariantError("linear system does not have full column rank")
    if any(row[n] for row in work[n:]):
        raise InternalInvariantError("inconsistent linear system")
    ys, d = _back_substitute(field, work, n, n)
    return [field.frac(y, d) for y in ys]


def _eliminate(field, rows, ncols):
    """Forward elimination on the first ``ncols`` columns of the int rows
    ``rows`` (consumed), carrying any later columns along; returns the
    echelon rows and the rank, pivot k sitting in row k.

    Over QQ it is fraction-free (Bareiss): rows are divided by their
    content, and each update (p * row - f * pivot_row) // previous pivot
    divides exactly.  Over F2 the rows hold bits, every pivot is one and
    an update is an xor.
    """
    if field is QQ:
        rows = [[x // g for x in r] if (g := gcd(*r)) > 1 else r for r in rows]
    m, rank, prev = len(rows), 0, 1
    for col in range(ncols):
        piv = next((r for r in range(rank, m) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        p = prow[col]
        tail = prow[col:]
        for r in range(rank + 1, m):
            row = rows[r]
            f = row[col]
            if field is QQ:
                row[col:] = [(p * x - f * y) // prev for x, y in zip(row[col:], tail)]
            elif f:
                row[col:] = [x ^ y for x, y in zip(row[col:], tail)]
        prev = p
        rank += 1
    return rows, rank


def _back_substitute(field, work, n, k):
    """(ys, d) with d > 0 and ys = d * x for the x that solves the first n
    echelon rows of ``_eliminate`` against their column k.  Over QQ d is
    |last pivot|, a determinant, so each division is exact (Cramer's
    rule); over F2 d is 1 and ys are bits."""
    d = abs(work[n - 1][n - 1]) if n else 1
    ys = [0] * n
    for r in range(n - 1, -1, -1):
        row = work[r]
        acc = d * row[k]
        for j in range(r + 1, n):
            if row[j]:
                acc -= row[j] * ys[j]
        ys[r] = acc // row[r] if field is QQ else acc & 1
    return ys, d


class CoordBasis:
    """Incrementally built basis of sparse int vectors with coordinate
    recovery.

    ``add`` and ``contains`` take int dicts {index: nonzero int} (over F2,
    ones), the vectors the span algorithms build; ``add`` keeps the dict
    it is given and returns the new basis index when the vector extends
    the span and None when it is dependent.  ``span_coords`` expresses
    int vectors known to lie in the span as integer combinations of the
    added vectors with one elimination, and ``coords`` expresses a vector
    of field scalars as a combination of them, or None outside the span.

    Over QQ an incoming vector is reduced against each echelon row b with
    pivot p to b[p] * v - v[p] * b (both factors divided by their gcd),
    and a new echelon row is divided by its content, pivot positive.
    Over F2 an incoming vector is reduced by symmetric difference of
    supports.  The echelon rows decide membership only.  Coordinates come
    from a solve against the added vectors restricted to the pivot
    columns, where they form an invertible square system.
    """

    def __init__(self, field):
        self.field = field
        self._rows = []  # echelon rows, int dicts
        self._pivots = []  # pivot index of each echelon row
        self._added = []  # the added int vectors

    def __len__(self):
        return len(self._added)

    def _reduce(self, v):
        """The int dict v (consumed) reduced against the echelon rows; the
        result is empty iff v lies in their span."""
        rows, pivots = self._rows, self._pivots
        if self.field is not QQ:
            for b, p in zip(rows, pivots):
                if p in v:
                    v = dict.fromkeys(v.keys() ^ b.keys(), 1)
            return v
        for b, p in zip(rows, pivots):
            c = v.get(p)
            if c is None:
                continue
            bp = b[p]
            if bp != 1:
                g = gcd(bp, c)
                bp //= g
                c //= g
                if bp != 1:
                    v = {j: bp * x for j, x in v.items()}
            for j, x in b.items():
                y = v.get(j, 0) - c * x
                if y:
                    v[j] = y
                else:
                    del v[j]
        return v

    def add(self, ints):
        row = self._reduce(dict(ints))
        if not row:
            return None
        pivot = min(row)
        if self.field is QQ:
            g = gcd(*row.values())
            if row[pivot] < 0:
                g = -g
            if g != 1:
                row = {j: x // g for j, x in row.items()}
        self._rows.append(row)
        self._pivots.append(pivot)
        self._added.append(ints)
        return len(self._added) - 1

    def contains(self, ints):
        return not self._reduce(dict(ints))

    def span_coords(self, vecs):
        """For each int dict w in vecs, which must lie in the span (this is
        not checked), (ys, d) with d * w = sum(ys[k] * added_k); over F2 d
        is 1 and the ys are bits."""
        m, added = len(self._added), self._added
        rows = [[a.get(p, 0) for a in added] + [w.get(p, 0) for w in vecs] for p in self._pivots]
        work, _ = _eliminate(self.field, rows, m)
        return [_back_substitute(self.field, work, m, t) for t in range(m, m + len(vecs))]

    def coords(self, vec):
        """Coordinates of vec, a dict of field scalars, w.r.t. the added
        vectors, or None."""
        if self.field is QQ:
            den = lcm(*{x.denominator for x in vec.values()})
            ints = {j: x.numerator * (den // x.denominator) for j, x in vec.items() if x}
        else:
            den, ints = 1, {j: 1 for j, x in vec.items() if x}
        if not self.contains(ints):
            return None
        (ys, d), = self.span_coords([ints])
        return [self.field.frac(y, d * den) for y in ys]
