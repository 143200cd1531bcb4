"""Weighted-graded polynomial rings and quotients by homogeneous ideals.

No Groebner bases: in the graded setting every question about the
quotient A = k[x_1..x_m]/(f_1..f_r) is answered one degree at a time by
row reduction.  The degree-d piece of the ideal is spanned by the
products (monomial of degree d - deg f_j) * f_j, and the quotient piece
gets the canonical basis of "standard monomials" (non-pivot columns of
the reduced span).  Elements are kept in normal form: supported on
standard monomials only.

Polynomials are dicts mapping exponent tuples to nonzero coefficients.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate, combinations
from numbers import Rational
from operator import add, index, mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegreeBoundExceeded, UsageError
from .linalg import QQ, DenseMatrix, RowSpace, field_of_characteristic

Mono = Tuple[int, ...]
Poly = Dict[Mono, object]

# hard guard against runaway degreewise scans
MAX_INTERNAL_DEGREE = 512


def poly_add(a: Poly, b: Poly, field) -> Poly:
    out = dict(a)
    qq = field == QQ
    for m, c in b.items():
        v = out.get(m, 0) + c
        if not qq:
            v %= field.p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def poly_scale(a: Poly, c, field) -> Poly:
    c = field.element(c)
    if c == 0:
        return {}
    if field == QQ:
        return {m: v * c for m, v in a.items()}
    p = field.p
    return {m: (v * c) % p for m, v in a.items()}


def poly_mul(a: Poly, b: Poly, field) -> Poly:
    out: Poly = {}
    p, zero = None if field == QQ else field.p, field.element(0)
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            v = out.get(m, zero) + c1 * c2
            if p is not None:
                v %= p
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return out


def poly_key(a: Poly) -> tuple:
    return tuple(sorted(a.items()))


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^)|(\*)|(\+)|(-)|(\()|(\)))")


class _Parser:
    """Recursive-descent parser for polynomial strings.

    Integer coefficients, '^' powers, '*' optional (juxtaposition
    multiplies), parentheses allowed.  A one-term base is raised to a
    power by scaling its exponents, and the terms of a sum are added
    into one dict.
    """

    def __init__(self, text: str, ring: "WeightedPolyRing"):
        self.ring, self.field = ring, ring.field
        self.p = None if ring.field == QQ else ring.field.p
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip() == "":
                    break
                raise UsageError(f"cannot tokenize polynomial at: {text[pos:]!r}")
            pos = m.end()
            kind, val = m.lastindex - 1, m.group(m.lastindex)
            if kind == 1:
                self.tokens.extend(self._split_names(val))
            else:
                self.tokens.append((kind, val))
        self.i = 0

    def _split_names(self, text: str):
        """Split a run of letters into known variable names, longest first."""
        if text in self.ring.var_index:
            return [(1, text)]
        out = []
        rest = text
        while rest:
            for name in self.ring.names_longest_first:
                if rest.startswith(name):
                    out.append((1, name))
                    rest = rest[len(name):]
                    break
            else:
                raise UsageError(f"unknown variable {rest!r}")
        return out

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def parse(self) -> Poly:
        p = self.expr()
        if self.i != len(self.tokens):
            raise UsageError(f"trailing tokens in polynomial: {self.tokens[self.i:]}")
        return p

    def expr(self) -> Poly:
        kind, _ = self.peek()
        sign = -1 if kind == 5 else 1
        if kind in (4, 5):
            self.i += 1
        out: Poly = {}
        while True:
            term = self.term()
            out = poly_add(out, term if sign == 1 else poly_scale(term, -1, self.field), self.field)
            kind, _ = self.peek()
            if kind not in (4, 5):
                return out
            self.i += 1
            sign = 1 if kind == 4 else -1

    def term(self) -> Poly:
        out = self.factor()
        while True:
            kind, _ = self.peek()
            if kind == 3:
                self.i += 1
            elif kind not in (0, 1, 6):  # else juxtaposition
                return out
            out = poly_mul(out, self.factor(), self.field)

    def factor(self) -> Poly:
        kind, val = self.next()
        if kind == 0:
            c = self.field.element(int(val))
            base: Poly = {self.ring.unit_mono: c} if c else {}
        elif kind == 1:
            base = {tuple(int(v == val) for v in self.ring.variables): self.field.element(1)}
        elif kind == 6:
            base = self.expr()
            kind2, _ = self.next()
            if kind2 != 7:
                raise UsageError("unbalanced parenthesis in polynomial")
        else:
            raise UsageError("expected a coefficient, variable or '('")
        kind, _ = self.peek()
        if kind != 2:
            return base
        self.i += 1
        kind2, val2 = self.next()
        if kind2 != 0:
            raise UsageError("exponent must be a nonnegative integer")
        n = int(val2)
        if len(base) == 1:  # c m ^ n = c^n m^n
            (m, c), = base.items()
            return {tuple(e * n for e in m): c ** n if self.p is None else pow(c, n, self.p)}
        out: Poly = {self.ring.unit_mono: self.field.element(1)}
        for _ in range(n):
            out = poly_mul(out, base, self.field)
        return out


def integers(values, what: str) -> Tuple[int, ...]:
    """values as ints: each must be taken by ``operator.index`` and not be a bool, so a
    float, a numeral string or JSON's true is refused, and a numpy integer passes."""
    try:
        if not any(isinstance(v, bool) for v in values):
            return tuple(map(index, values))
    except TypeError:
        pass
    raise UsageError(f"{what} must be integers, not {values!r}")


def sequence(value, what: str):
    """value when it is a list or tuple: a string would be read character by character."""
    if isinstance(value, (list, tuple)):
        return value
    raise UsageError(f"{what} must be a list, not {value!r}")


class WeightedPolyRing:
    """Polynomial ring with positive integer weights on the variables."""

    def __init__(self, characteristic: int, variables: Sequence[str], weights: Optional[Sequence[int]] = None):
        self.field = field_of_characteristic(characteristic)
        names = self.variables = tuple(variables)
        if not all(isinstance(v, str) for v in names) or len(set(names)) != len(names):
            raise UsageError("variable names must be distinct strings")
        self.weights = integers([1] * len(names) if weights is None else weights, "weights")
        if len(self.weights) != len(self.variables):
            raise UsageError("one weight per variable required")
        if any(w < 1 for w in self.weights):
            raise UsageError("weights must be >= 1")
        self.var_index = {v: i for i, v in enumerate(self.variables)}
        self.unit_mono: Mono = (0,) * len(self.variables)
        self.names_longest_first = sorted(self.variables, key=len, reverse=True)
        self.weights_desc = tuple(sorted(self.weights, reverse=True))
        self._mono_cache: Dict[int, Tuple[Mono, ...]] = {}

    @property
    def characteristic(self) -> int:
        return self.field.characteristic

    @property
    def key(self):
        return (self.characteristic, self.variables, self.weights)

    def __eq__(self, other):
        return isinstance(other, WeightedPolyRing) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        w = "" if all(x == 1 for x in self.weights) else f", weights={list(self.weights)}"
        return f"k[{','.join(self.variables)}](char {self.characteristic}{w})"

    def wdeg(self, mono: Mono) -> int:
        return sum(map(mul, mono, self.weights))

    def poly_degree(self, poly: Poly) -> Optional[int]:
        """Weighted degree of a homogeneous polynomial; None for 0."""
        if not poly:
            return None
        degs = {self.wdeg(m) for m in poly}
        if len(degs) != 1:
            raise UsageError("polynomial is not weighted-homogeneous")
        return degs.pop()

    def monomials(self, d: int) -> Tuple[Mono, ...]:
        """All monomials of weighted degree d, lex-descending (deterministic)."""
        if d < 0:
            return ()
        if d > MAX_INTERNAL_DEGREE:
            raise DegreeBoundExceeded(f"degree bound (internal degree {d})", bound=MAX_INTERNAL_DEGREE)
        cached = self._mono_cache.get(d)
        if cached is not None:
            return cached
        # exponents fixed variable by variable, each from its largest value
        # down, with the degree they leave: lex-descending as they are built
        parts = [((), d)]
        for w in self.weights[:-1]:
            parts = [(acc + (e,), rem - e * w) for acc, rem in parts for e in range(rem // w, -1, -1)]
        last = self.weights[-1]
        res = tuple(acc + (rem // last,) for acc, rem in parts if rem % last == 0)
        self._mono_cache[d] = res
        return res

    def parse(self, text: str) -> Poly:
        return _Parser(text, self).parse()

    def poly_to_str(self, poly: Poly) -> str:
        if not poly:
            return "0"
        parts = []
        for mono in sorted(poly, reverse=True):
            c = poly[mono]
            factors = []
            for v, e in zip(self.variables, mono):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def quotient(self, relations: Iterable) -> "QuotientRing":
        return QuotientRing(self, relations)

    @cached_property
    def relation_free(self) -> "QuotientRing":
        """This ring as a quotient by no relations, built once: matrix factorizations live here."""
        return QuotientRing(self, [])


class _Piece:
    """Degree-d data of a quotient ring: monomials, ideal span, basis.

    ``dim`` is the number of standard monomials.  ``normal_forms``, built on
    first use by ``QuotientRing.normal_form_matrix``, holds the std
    coordinates of the normal form of every monomial.
    """

    __slots__ = ("degree", "monos", "index", "rel_space", "std", "std_index", "dim",
                 "normal_forms")

    def __init__(self, degree, monos, index, rel_space, std, std_index):
        self.degree = degree
        self.monos = monos
        self.index = index
        self.rel_space = rel_space
        self.std = std
        self.std_index = std_index
        self.dim = len(std)
        self.normal_forms = None


class QuotientRing:
    """A weighted-graded quotient k[x_1..x_m]/(f_1..f_r).

    Relations may be empty, in which case this is the ambient polynomial
    ring itself (used as the lifting target for matrix factorizations
    and Eisenbud operators).
    """

    def __init__(self, ambient: WeightedPolyRing, relations: Iterable):
        self.ambient = ambient
        self.field = ambient.field
        rels: List[Poly] = []
        for rel in sequence(relations, "relations"):
            if not isinstance(rel, (str, dict)):
                raise UsageError(f"relation {rel!r} is not a polynomial")
            poly = ambient.parse(rel) if isinstance(rel, str) else dict(rel)
            if not poly:
                raise UsageError("zero relation")
            d = ambient.poly_degree(poly)
            if d is not None and d < 1:
                raise UsageError("relations must have positive degree")
            rels.append(poly)
        self.relations = tuple(rels)
        self.relation_degrees = tuple(ambient.poly_degree(r) for r in self.relations)
        self._first_relation_degree = min(self.relation_degrees, default=MAX_INTERNAL_DEGREE + 1)
        # identity of the ring, read on every element check and comparison
        self.key = (ambient.key, tuple(poly_key(r) for r in self.relations))
        self._pieces: Dict[int, _Piece] = {}
        self._mult_cache: Dict[tuple, DenseMatrix] = {}
        self._offsets: Dict[Tuple[int, ...], Tuple[int, ...]] = {}  # block_offsets: degrees -> offsets
        self._gens: Optional[Tuple["RingElement", ...]] = None
        self._zero = RingElement(self, {}, None)  # the zero of no degree, shared

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, QuotientRing) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        rels = ", ".join(self.ambient.poly_to_str(r) for r in self.relations)
        return f"{self.ambient!r}/({rels})"

    @property
    def characteristic(self) -> int:
        return self.ambient.characteristic

    @property
    def variables(self):
        return self.ambient.variables

    @property
    def weights(self):
        return self.ambient.weights

    @property
    def max_weight(self) -> int:
        return max(self.weights)

    # -- degreewise pieces ----------------------------------------------

    def piece(self, d: int) -> _Piece:
        got = self._pieces.get(d)
        if got is not None:
            return got
        monos = self.ambient.monomials(d) if d >= 0 else ()
        index = {m: i for i, m in enumerate(monos)}
        # u * rel for each monomial u of degree d - deg rel: rel's terms shifted by u
        multiples = [{tuple(map(add, m, u)): c for m, c in rel.items()}
                     for rel, rd in zip(self.relations, self.relation_degrees)
                     for u in self.ambient.monomials(d - rd)]
        space = RowSpace(self.field, len(monos))
        space.add_matrix(self._monomial_rows(multiples, index, len(monos)))
        pivots = set(space.pivots())
        std = tuple(i for i in range(len(monos)) if i not in pivots)
        std_index = {c: i for i, c in enumerate(std)}
        piece = _Piece(d, monos, index, space, std, std_index)
        self._pieces[d] = piece
        return piece

    def normal_form_matrix(self, d: int) -> DenseMatrix:
        """Row i: the std coordinates of the normal form of the i-th monomial of degree d.

        The rows follow ``ambient.monomials(d)``.  A standard monomial's row
        is a unit row.  The ideal's echelon rows are fully reduced, so a pivot
        monomial is congruent to minus the rest of its echelon row, which
        lies on the standard columns.  Cached next to the piece.
        """
        pc = self.piece(d)
        if pc.normal_forms is None:
            nf = self.field.zeros((len(pc.monos), pc.dim))
            nf[list(pc.std), range(pc.dim)] = self.field.element(1)
            if pc.rel_space.dim:
                echelon = pc.rel_space.basis_matrix().take_columns(pc.std)._array()
                nf[list(pc.rel_space.pivots())] = self.field.reduce(-echelon)
            pc.normal_forms = DenseMatrix._of_array(self.field, nf)
        return pc.normal_forms

    def _monomial_rows(self, polys: Sequence[Poly], index: Dict[Mono, int], n: int) -> DenseMatrix:
        """The polynomials as the rows of a matrix, columns indexed by ``index``."""
        rows = DenseMatrix.zeros(self.field, len(polys), n)._array()
        for r, poly in enumerate(polys):
            for m, c in poly.items():
                rows[r, index[m]] = c
        return DenseMatrix._of_array(self.field, rows)

    def hilbert_function(self, d: int) -> int:
        got = self._pieces.get(d)
        if got is not None:
            return got.dim
        return self.piece(d).dim if d >= 0 else 0

    # -- normal forms -----------------------------------------------------

    def normal_form(self, poly: Poly, degrees: Optional[List[int]] = None) -> Poly:
        """Reduce a polynomial modulo the ideal, degree by degree.

        A part that no relation reaches is in normal form: its coefficients
        are reduced by the field and its monomials put in the piece's
        lex-descending order, with no piece built below every relation's degree.
        The degree of each nonzero part of the result is appended to
        ``degrees`` when one is given, read off the grouping.
        """
        if not poly:
            return {}
        by_deg: Dict[int, Poly] = {}
        for m, c in poly.items():
            by_deg.setdefault(self.ambient.wdeg(m), {})[m] = c
        out: Poly = {}
        element = self.field.element
        for d, part in by_deg.items():
            size = len(out)
            pc = self.piece(d) if d >= self._first_relation_degree else None
            if pc is None or not pc.rel_space.dim:  # no relation reaches degree d
                for m in sorted(part, reverse=True):
                    c = element(part[m])
                    if c:
                        out[m] = c
            else:
                # the coefficients times the normal forms of their monomials
                rows = self.normal_form_matrix(d)._array()[[pc.index[m] for m in part]]
                coeffs = self.field.vector(list(part.values()))
                red = self.field.matmul(coeffs[None], rows)[0].tolist()
                for i, c in zip(pc.std, red):
                    if c:
                        out[pc.monos[i]] = c
            if degrees is not None and len(out) > size:
                degrees.append(d)
        return out

    # -- elements ---------------------------------------------------------

    def element(self, value, degree: Optional[int] = None) -> "RingElement":
        if isinstance(value, RingElement):
            if value.ring.key != self.key:
                raise UsageError("element belongs to a different ring")
            return value
        if isinstance(value, str):
            poly = self.ambient.parse(value)
        elif isinstance(value, dict):
            poly = dict(value)
        elif isinstance(value, Rational) and not isinstance(value, bool):  # an exact scalar
            c = self.field.element(value)
            poly = {self.ambient.unit_mono: c} if c else {}
        else:
            raise UsageError(f"{value!r} is not a polynomial or an exact number")
        degs: List[int] = []
        poly = self.normal_form(poly, degs)
        if len(degs) > 1:
            raise UsageError("polynomial is not weighted-homogeneous")
        d = degs[0] if degs else degree
        if degree is not None and degree != d:
            raise UsageError(f"element has degree {d}, expected {degree}")
        return RingElement(self, poly, d)

    def zero(self, degree: Optional[int] = None) -> "RingElement":
        return self._zero if degree is None else RingElement(self, {}, degree)

    def one(self) -> "RingElement":
        return self.element(1)

    def gens(self) -> Tuple["RingElement", ...]:
        """The variables as ring elements, built once per ring from their exponent tuples."""
        if self._gens is None:
            self._gens = tuple(self.element({tuple(int(v == x) for v in self.variables): 1})
                               for x in self.variables)
        return self._gens

    # -- multiplication operators ------------------------------------------

    def mult_matrix(self, poly: Poly, srcdeg: int, degree: Optional[int] = None,
                    key: Optional[tuple] = None) -> DenseMatrix:
        """Matrix of multiplication by a homogeneous normal-form poly.

        Maps std coords of A_srcdeg to std coords of A_{srcdeg+deg}.
        ``degree`` is the weighted degree of a nonzero poly, when the caller
        knows it (a ``RingElement``'s ``degree``); otherwise it is computed.
        So is ``key``, which is ``poly_key(poly)``.
        """
        if not poly:
            return DenseMatrix.zeros(self.field, 0, self.hilbert_function(srcdeg))
        key = (poly_key(poly) if key is None else key, srcdeg)
        got = self._mult_cache.get(key)
        if got is not None:
            return got
        e = self.ambient.poly_degree(poly) if degree is None else degree
        src = self.piece(srcdeg)
        tgt = self.piece(srcdeg + e)
        nf = self.normal_form_matrix(srcdeg + e)._array()
        basis = [src.monos[i] for i in src.std]
        # row i: the normal form of basis monomial i times poly, one gather
        # of normal-form rows per term of poly; a lone unit term (a variable)
        # is its gather, whose entries are reduced already
        terms = [(nf[[tgt.index[tuple(map(add, m, u))] for m in basis]], c) for u, c in poly.items()]
        out = terms[0][0] if len(terms) == 1 and terms[0][1] == 1 else self.field.reduce(
            sum(self.field.reduce(rows * c) for rows, c in terms))
        mat = DenseMatrix._of_array(self.field, out.T.copy())
        self._mult_cache[key] = mat
        return mat

    # -- linear systems ----------------------------------------------------

    def block_offsets(self, degs: Sequence[int]) -> Tuple[int, ...]:
        """Where each block of (+)_j A_{degs[j]} starts, then the total size; kept per degree tuple."""
        key = tuple(degs)
        got = self._offsets.get(key)
        if got is None:
            got = self._offsets[key] = tuple(accumulate(map(self.hilbert_function, key), initial=0))
        return got

    def split_coords(self, rows, degs: Sequence[int]) -> List[List["RingElement"]]:
        """Per row of a matrix, the ring elements of degrees degs whose coordinates, block
        after block, are that row.

        The inverse of ``join_coords``; one vector is a matrix of one row.  One
        ``flatnonzero`` over the whole matrix finds every nonzero coordinate,
        and each goes to the block it falls in as the coefficient of that
        block's standard monomial, in ascending order.  Every zero block is the
        ring's one zero of degree None; a block's element is made at its first nonzero.
        """
        offsets = self.block_offsets(degs)
        rows = self.field.vector(np.asarray(rows)[:, :offsets[-1]])
        width, flat = rows.shape[1], rows.ravel()
        nonzero = np.flatnonzero(flat)
        out = [[self._zero] * len(degs) for _ in range(len(rows))]
        for k, c in zip(nonzero.tolist(), flat[nonzero].tolist()):
            r, i = divmod(k, width)
            j = bisect_right(offsets, i) - 1
            pc = self._pieces[degs[j]]
            if out[r][j] is self._zero:
                out[r][j] = RingElement(self, {}, degs[j])
            out[r][j].poly[pc.monos[pc.std[i - offsets[j]]]] = c
        return out

    def join_coords(self, elements: Sequence["RingElement"], degs: Sequence[int]):
        """The coordinates of ring elements of degrees degs, block after block, as one vector.

        The inverse of ``split_coords``: each coefficient goes straight to
        its standard monomial's place in one preallocated vector.
        """
        offsets = self.block_offsets(degs)
        out = self.field.zeros(offsets[-1])
        for r0, d, e in zip(offsets, degs, elements):
            if e.poly:
                pc = self._pieces[d]
                for m, c in e.poly.items():
                    out[r0 + pc.std_index[pc.index[m]]] = c
        return out

    # -- ring invariants -----------------------------------------------------

    def is_complete_intersection(self) -> bool:
        """Koszul criterion, degreewise: Hilbert series matches the CI product."""
        return self._ci_flag

    @cached_property
    def _ci_flag(self) -> bool:
        bound = sum(self.relation_degrees) + sum(self.weights) + 6
        expect = hilbert_series_ci(self.weights, self.relation_degrees, bound)
        if any(c < 0 for c in expect):
            return False
        return all(self.hilbert_function(d) == expect[d] for d in range(bound + 1))

    def _horizon(self) -> int:
        """The last degree the Artinian and socle scans read."""
        return sum(self.relation_degrees) + sum(self.weights) + 4

    def _top_degree(self) -> Optional[int]:
        """The top nonzero degree of an Artinian ring (``zero_run_top``); None if none shows."""
        return zero_run_top(map(self.hilbert_function, range(self._horizon() + 1)), self.max_weight)

    def is_artinian(self) -> bool:
        return self._top_degree() is not None

    @cached_property
    def is_certified_ci(self) -> bool:
        """At most one relation, or relations in pairwise disjoint sets of variables.

        Such relations form a regular sequence.  Unlike
        ``is_complete_intersection`` this reads the relations only.
        """
        supports = [{v for mono in rel for v, a in enumerate(mono) if a} for rel in self.relations]
        return len(supports) < 2 or sum(map(len, supports)) == len(set().union(*supports))

    @cached_property
    def artinian_reduction(self) -> Optional[Tuple[int, int]]:
        """(d, s): A is Cohen-Macaulay of dimension d, and d of its variables l
        make B = A/(l) Artinian with top degree s; None when no such l is found.

        An Artinian ring is its own B (d = 0).  A certified complete
        intersection has d = #variables - #relations; each choice of the other
        variables is tried in turn, and s is the least top degree of an
        Artinian B.  Such an l is a system of parameters, hence regular on
        every maximal Cohen-Macaulay module.
        """
        reduction = self._reduction
        return None if reduction is None else reduction[:2]

    @cached_property
    def _reduction(self) -> Optional[Tuple[int, int, Tuple[int, ...], int]]:
        """(d, s, l, length(B)) for ``artinian_reduction``, l the indices of its parameters."""
        n, r = len(self.variables), len(self.relations)
        if not self.is_certified_ci:
            s = self._top_degree()
            return None if s is None else (0, s, (), sum(map(self.hilbert_function, range(s + 1))))
        if not r:
            return n, 0, tuple(range(n)), 1  # B = k
        best = None
        for keep in combinations(range(n), r):
            # setting l to 0 leaves the relations with a term in the kept variables
            # alone; they use disjoint sets of variables too, a regular sequence,
            # so B's Hilbert series is the complete-intersection one
            weights = [self.weights[i] for i in keep]
            degs = [d for rel, d in zip(self.relations, self.relation_degrees)
                    if any(sum(m[i] for i in keep) == sum(m) for m in rel)]
            horizon = sum(degs) + sum(weights) + 4  # B's ``_horizon``
            series = hilbert_series_ci(weights, degs, horizon)
            s = zero_run_top(series, max(weights))
            if s is not None and (best is None or s < best[1]):
                best = (n - r, s, tuple(i for i in range(n) if i not in keep), sum(series[:s + 1]))
        return best

    @cached_property
    def reduction_parameters(self) -> Optional[Tuple[int, ...]]:
        """The indices of ``artinian_reduction``'s parameters l when (l) is a reduction of m.

        A is Cohen-Macaulay, so length(A/lA) = e(l, A), and (l) is a reduction
        of m exactly when e(l, A) = e(A) (Rees, J. London Math. Soc. 36, 1961).
        Then e(M) = e(l, M) = length(M/lM) for every maximal Cohen-Macaulay M.
        None when there is no reduction or length(A/lA) differs from e(A).
        """
        reduction = self._reduction
        if reduction is None or reduction[3] != self.multiplicity():
            return None
        return reduction[2]

    def krull_dim(self) -> int:
        return self._krull_dim

    @cached_property
    def _krull_dim(self) -> int:
        if self.is_complete_intersection():
            return len(self.variables) - len(self.relations)
        if self.is_artinian():
            return 0
        return self.hilbert_samuel_fit()[0]

    def socle_dimension(self) -> int:
        """dim of (0 : m) for an Artinian quotient: in each degree d, the kernel of the
        variables' stacked multiplication maps out of A_d."""
        total = 0
        for d in range(self._horizon() + 1):
            dim = self.hilbert_function(d)
            if dim:
                stacked = np.vstack([self.mult_matrix(x.poly, d)._array() for x in self.gens()])
                total += dim - DenseMatrix._of_array(self.field, stacked).rank()
        return total

    def is_gorenstein(self) -> bool:
        """Complete intersections, or Artinian with one-dimensional socle."""
        return self._gorenstein

    @cached_property
    def _gorenstein(self) -> bool:
        if self.is_complete_intersection():
            return True
        if self.is_artinian():
            return self.socle_dimension() == 1
        return False

    def hilbert_samuel_fit(self):
        """(dim, e) from the Hilbert-Samuel function of the ring, fitted once.

        The values length(A/m^s), s = 1..14, are ``modules.hs_lengths``
        of A as a free module on one generator of degree 0.
        """
        return self._hs_fit

    @cached_property
    def _hs_fit(self) -> Tuple[int, int]:
        from .modules import free_module, hs_lengths

        return fit_hilbert_samuel(hs_lengths(free_module(self, [0]), 14))

    def multiplicity(self) -> int:
        """e(A).  On a hypersurface k[x]/(f) it is ord(f), the least total (not
        weighted) degree of a term of f, exactly; elsewhere the Hilbert-Samuel fit."""
        if len(self.relations) == 1:
            return min(map(sum, self.relations[0]))
        return self.hilbert_samuel_fit()[1]


def hilbert_series_ci(weights: Sequence[int], relation_degrees: Sequence[int],
                      bound: int) -> List[int]:
    """Coefficients of prod(1-t^deg fi) / prod(1-t^wj) up to bound."""
    num = [0] * (bound + 1)
    num[0] = 1
    for d in relation_degrees:
        new = list(num)
        for i in range(bound + 1 - d):
            new[i + d] -= num[i]
        num = new
    coeffs = list(num)
    for w in weights:
        # divide by (1 - t^w): running sums
        for i in range(w, bound + 1):
            coeffs[i] += coeffs[i - w]
    return coeffs


def zero_run_top(values: Iterable[int], run: int) -> Optional[int]:
    """The last degree with a nonzero value of a ring's Hilbert function, read up to a run of zeros.

    values are the Hilbert function from degree 0 on.  Each A_d is the sum
    of x A_{d-w} over the variables x of weight w, so ``run`` = max_weight
    zero values in a row end the ring; None when no such run occurs.
    """
    top, zeros = 0, 0
    for d, value in enumerate(values):
        if value:
            top, zeros = d, 0
        else:
            zeros += 1
            if zeros >= run:
                return top
    return None


def fit_hilbert_samuel(values: List[int]):
    """Detect stabilized finite differences of the HS function.

    Returns (order, constant): the order of the first difference that ends
    in four equal nonzero values (= Krull dimension) and that value
    (= multiplicity).  Raises Inconclusive when the window is too short.
    """
    diffs = list(values)
    for order in range(0, len(values)):
        if len(diffs) >= 4:
            window = diffs[-4:]
            if all(x == window[0] for x in window) and window[0] != 0:
                return order, window[0]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if not diffs:
            break
    raise DegreeBoundExceeded("Hilbert-Samuel window too short to stabilize", bound=len(values))


class BlockSystem:
    """A grid of ring elements as a map of free modules, compiled once, evaluated in any degree.

    The map sends generator j of (+)_j A(-col_degs[j]) to column j of the
    grid in (+)_k A(-row_degs[k]); every Hom, kernel and lifting system of
    the package is one such map.  Only the nonzero entries are kept, row
    by row, each with its degree and its ``poly_key``, which the entry's
    first lookup builds: an evaluation walks no zero entry, a key is sorted
    once per system, and a system evaluated once sorts only the keys of
    the blocks it looks up, as a walk of the grid would.
    """

    __slots__ = ("ring", "row_degs", "col_degs", "entries")

    def __init__(self, ring: QuotientRing, grid, row_degs: Sequence[int], col_degs: Sequence[int]):
        self.ring = ring
        self.row_degs = tuple(row_degs)
        self.col_degs = tuple(col_degs)
        # [row, column, poly, degree, key or None] of each nonzero entry
        self.entries = [[k, j, e.poly, e.degree, None]
                        for k, row in enumerate(grid) for j, e in enumerate(row) if e.poly]

    def columns(self, keep: Sequence[int]) -> "BlockSystem":
        """The map on the generators ``keep`` of the source only, in that order.

        The kept entries' keys are built on this system first, so its sub-systems share them.
        """
        out = BlockSystem(self.ring, (), self.row_degs, [self.col_degs[j] for j in keep])
        new = {j: i for i, j in enumerate(keep)}
        for entry in self.entries:
            if entry[1] in new and entry[4] is None:
                entry[4] = poly_key(entry[2])
        out.entries = [[k, new[j], *rest] for k, j, *rest in self.entries if j in new]
        return out

    def at(self, d: int) -> DenseMatrix:
        """The map in degree d.

        Block (k, j) is ``mult_matrix(grid[k][j], d - col_degs[j])``, from
        A_{d - col_degs[j]} to A_{d - row_degs[k]}, written into one array
        allocated for the whole matrix; blocks of zero entries stay zero.
        From A_0 = k the block is one column, the entry's own standard
        coordinates, written as ``join_coords`` writes them.
        """
        ring, col_degs = self.ring, self.col_degs
        rows = ring.block_offsets([d - r for r in self.row_degs])
        cols = ring.block_offsets([d - c for c in col_degs])
        out = ring.field.zeros((rows[-1], cols[-1]))
        for entry in self.entries:
            k, j, poly, e, key = entry
            if rows[k] < rows[k + 1] and cols[j] < cols[j + 1]:
                if d == col_degs[j]:
                    pc = ring._pieces[e]
                    for m, c in poly.items():
                        out[rows[k] + pc.std_index[pc.index[m]], cols[j]] = c
                    continue
                if key is None:
                    key = entry[4] = poly_key(poly)
                out[rows[k]:rows[k + 1], cols[j]:cols[j + 1]] = ring.mult_matrix(
                    poly, d - col_degs[j], e, key)._array()
        return DenseMatrix._of_array(ring.field, out)


def grid_mul(ring: QuotientRing, A, B) -> Tuple[Tuple["RingElement", ...], ...]:
    """The product of two grids of ring elements, (rows x mid) . (mid x cols).

    Each entry is summed in the ambient ring and reduced to normal form
    once.  The column count is read from the first row of B, so a B with
    no rows gives a product with no columns.
    """
    field = ring.field
    cols = range(len(B[0]) if B else 0)
    out = []
    for row in A:
        out_row = []
        for j in cols:
            acc: Poly = {}
            for x, brow in zip(row, B):
                y = brow[j]
                if x.poly and y.poly:
                    acc = poly_add(acc, poly_mul(x.poly, y.poly, field), field)
            out_row.append(ring.element(acc))
        out.append(tuple(out_row))
    return tuple(out)


class RingElement:
    """Homogeneous element of a quotient ring, kept in normal form."""

    __slots__ = ("ring", "poly", "degree")

    def __init__(self, ring: QuotientRing, poly: Poly, degree: Optional[int]):
        self.ring = ring
        self.poly = poly
        self.degree = degree

    def is_zero(self) -> bool:
        return not self.poly

    def _check(self, other: "RingElement"):
        if self.ring.key != other.ring.key:
            raise UsageError("mixed-ring operands")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        if not other.poly:
            return self
        if not self.poly:
            return other
        if self.degree != other.degree:
            raise UsageError("adding elements of different degrees")
        out = poly_add(self.poly, other.poly, self.ring.field)
        return RingElement(self.ring, out, self.degree)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + other.scale(-1)

    def scale(self, c) -> "RingElement":
        out = poly_scale(self.poly, c, self.ring.field)
        return RingElement(self.ring, out, self.degree)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        deg = None
        if self.degree is not None and other.degree is not None:
            deg = self.degree + other.degree
        if not self.poly or not other.poly:
            return RingElement(self.ring, {}, deg)
        prod = poly_mul(self.poly, other.poly, self.ring.field)
        return RingElement(self.ring, self.ring.normal_form(prod), deg)

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring.key == other.ring.key and self.poly == other.poly

    def __hash__(self):
        return hash((self.ring.key, poly_key(self.poly)))

    def __repr__(self):
        return self.ring.ambient.poly_to_str(self.poly)

    def constant_coefficient(self):
        """Scalar part (coefficient of the unit monomial)."""
        return self.poly.get(self.ring.ambient.unit_mono, self.ring.field.element(0))

    def is_unit(self) -> bool:
        return bool(self.poly) and self.degree == 0
