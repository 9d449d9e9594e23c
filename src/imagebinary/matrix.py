"""Immutable exact matrices over QQ or F2, plus the linear algebra the
automata algorithms need: products, Kronecker products, and rank,
inversion and unique solving through one fraction-free (Bareiss)
elimination.

A matrix is frozen at construction and stored sparse, as its nonzero
rows or as its integer view (the nonzero entries times one common
denominator).  Products and Kronecker products run on the integer view
and return one; ``solve_rows`` is the checked unique solve that
``solve_unique`` and the model checker's block solve share.

``CoordBasis``, the incremental basis with coordinate recovery that the
span-exploration algorithms grow one vector at a time, lives here too.
It keeps integer echelon rows: over QQ each is primitive and reduced
fraction-free, over F2 each holds ones and reduces by symmetric
difference of supports.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import InputError, InternalInvariantError
from .fields import QQ

__all__ = ["Matrix", "CoordBasis"]


class Matrix:
    """Immutable row-major matrix with entries from one field, built from
    dense rows (``Matrix(field, rows)``), nonzero entries (``from_entries``)
    or an integer view (``from_int_rows``).  Of ``nonzero_rows``,
    ``int_rows`` and the dense ``rows``, the constructor's form is stored
    and the others are built on first read and cached.  Equality and
    hashing compare the canonical integer view."""

    __slots__ = ("field", "nrows", "ncols", "_rows", "_nonzero", "_ints")

    def __init__(self, field, rows):
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise InputError("ragged matrix rows")
        nz = tuple([tuple([(j, x) for j, x in enumerate(r) if x]) for r in rows])
        self._fill(field=field, nrows=len(rows), ncols=ncols, _rows=tuple(rows), _nonzero=nz)

    def _fill(self, **slots):
        for name in self.__slots__:
            object.__setattr__(self, name, slots.get(name))
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
        rows = [[] for _ in range(nrows)]
        for (i, j), x in entries.items():
            if x:
                rows[i].append((j, x))
        nz = tuple([tuple(sorted(r)) for r in rows])
        return object.__new__(cls)._fill(field=field, nrows=nrows, ncols=ncols, _nonzero=nz)

    @classmethod
    def from_int_rows(cls, field, ncols, rows, den):
        """Build from an integer view: per row, (column, int) pairs in
        column order for int / den (den > 0), zeros left out.  Over QQ the
        view is brought to lowest terms; over F2 den is odd, ints mod 2."""
        if field is QQ:
            g = gcd(den, *(x for row in rows for _, x in row))
            if g > 1:
                rows, den = [[(j, x // g) for j, x in row] for row in rows], den // g
            rows = tuple([tuple(row) for row in rows])
        else:
            rows, den = tuple([tuple([(j, 1) for j, x in row if x & 1]) for row in rows]), 1
        ints = rows, den
        return object.__new__(cls)._fill(field=field, nrows=len(rows), ncols=ncols, _ints=ints)

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

    @property
    def rows(self):
        """The dense rows, as tuples; built once per matrix."""
        if self._rows is None:
            dense = [[self.field.zero] * self.ncols for _ in range(self.nrows)]
            for row, nz in zip(dense, self.nonzero_rows()):
                for j, x in nz:
                    row[j] = x
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
        entries are 1 and den is 1.  Computed once per matrix."""
        ints = self._ints
        if ints is None:
            nz = self._nonzero
            if self.field is QQ:
                den = lcm(*{x.denominator for row in nz for _, x in row})
                rows = tuple([
                    tuple([(j, x.numerator * (den // x.denominator)) for j, x in row])
                    for row in nz
                ])
            else:
                den, rows = 1, tuple([tuple([(j, 1) for j, _ in row]) for row in nz])
            ints = rows, den
            object.__setattr__(self, "_ints", ints)
        return ints

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
        rows, den = self.int_rows()
        neg = [[(j, -x) for j, x in r] for r in rows]
        return Matrix.from_int_rows(self.field, self.ncols, neg, den)

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
        arows, da = self.int_rows()
        brows, db = other.int_rows()
        nc = other.ncols
        out = [
            [(j * nc + k, a * b) for j, a in arow for k, b in brow]
            for arow in arows
            for brow in brows
        ]
        return Matrix.from_int_rows(self.field, self.ncols * nc, out, da * db)

    def is_zero(self):
        return not any(self.int_rows()[0])

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
        """Solve self * x = rhs where self may have extra rows, through
        ``solve_rows`` and its checks."""
        if rhs.nrows != self.nrows or rhs.ncols != 1:
            raise InputError("right hand side shape mismatch")
        rows = [[*r, *b] for r, b in zip(self.rows, rhs.rows)]
        return Matrix.col_vector(self.field, solve_rows(self.field, rows, self.ncols))


def solve_rows(field, rows, n):
    """The unique x, in the field, with A x = b for augmented rows [A | b]
    (A has n columns and maybe extra rows; over QQ, ints or Fractions).
    Without full column rank or consistency it raises
    InternalInvariantError: callers only assemble uniquely solvable systems."""
    work, rank = _eliminate(field, rows, n)
    if rank < n:
        raise InternalInvariantError("linear system does not have full column rank")
    if any(row[n] for row in work[n:]):
        raise InternalInvariantError("inconsistent linear system")
    return _back_substitute(field, work, n, n)


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

    Vectors are dicts {index: nonzero scalar}: ints or Fractions over QQ,
    GF2 elements or ones over F2.  ``add`` returns the new basis index when
    the vector extends the span and None when it is dependent; ``coords``
    expresses a vector as a combination of the vectors that were
    successfully added, and ``int_coords`` does so in integers for many
    vectors with one elimination.

    Over QQ an incoming vector is scaled once by the lcm of its
    denominators.  Against an echelon row b with pivot p it becomes
    b[p] * v - v[p] * b (both factors divided by their gcd), and a new
    echelon row is divided by its content, pivot positive.  Over F2 an
    incoming vector is reduced by symmetric difference of supports.  The
    echelon rows decide membership only.  Coordinates come from a solve
    against the added vectors restricted to the pivot columns, where they
    form an invertible square system.
    """

    def __init__(self, field):
        self.field = field
        self._rows = []  # echelon rows, int dicts
        self._pivots = []  # pivot index of each echelon row
        self._added = []  # (ints, den): an added vector is ints / den

    def __len__(self):
        return len(self._added)

    def _ints(self, vec):
        """(ints, den) with vec = ints / den: den is the lcm of the
        denominators over QQ and 1 over F2, where every entry is 1."""
        if self.field is QQ:
            den = lcm(*{x.denominator for x in vec.values()})
            return {j: x.numerator * (den // x.denominator) for j, x in vec.items() if x}, den
        return {j: 1 for j, x in vec.items() if x}, 1

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

    def add(self, vec):
        ints, den = self._ints(vec)
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
        self._added.append((ints, den))
        return len(self._added) - 1

    def contains(self, vec):
        return not self._reduce(self._ints(vec)[0])

    def int_coords(self, vecs):
        """For each int dict w in vecs: None when w is outside the span,
        else (ys, d) with d * w = sum(ys[k] * ints_k), ints_k the k-th
        added vector times its den.  Over F2 d is odd and the coordinates
        are the ys mod 2 (the pivot block has odd determinant)."""
        m = len(self._added)
        added = [a for a, _ in self._added]
        rows = [[a.get(p, 0) for a in added] + [w.get(p, 0) for w in vecs] for p in self._pivots]
        work, _ = _eliminate(QQ, rows, m)
        d = work[m - 1][m - 1] if m else 1
        out = []
        for t, w in enumerate(vecs, m):
            if self._reduce(dict(w)):
                out.append(None)
                continue
            # fraction-free back substitution: y = d * x is integral
            ys = [0] * m
            for r in range(m - 1, -1, -1):
                row = work[r]
                acc = d * row[t]
                for j in range(r + 1, m):
                    if row[j]:
                        acc -= row[j] * ys[j]
                ys[r] = acc // row[r]
            out.append((ys, d))
        return out

    def coords(self, vec):
        """Coordinates of vec w.r.t. the added basis vectors, or None."""
        ints, den = self._ints(vec)
        sol = self.int_coords([ints])[0]
        if sol is None:
            return None
        ys, d = sol
        frac, zero = self.field.frac, self.field.zero
        return [frac(y * dk, d * den) if y else zero for y, (_, dk) in zip(ys, self._added)]
