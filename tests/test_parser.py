"""The polynomial parser and the normal form's no-relation path against references.

``OldParser`` is the plain recursive-descent parser the package used
before its parser raised one-term powers directly and summed terms into
one dict: powers by repeated ``poly_mul``, every term scaled by its sign.
``piece_normal_form`` is the normal form that builds the degree-d piece in
every degree, including those no relation reaches.  The package must give
the same dicts (same keys, values, coefficient types and key order for the
normal form) and the same ``UsageError`` messages.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcmkit.catalog import load_catalog, nonci_gorenstein_ring
from mcmkit.errors import UsageError
from mcmkit.linalg import QQ
from mcmkit.mf import MatrixFactorization
from mcmkit.rings import WeightedPolyRing, poly_add, poly_mul, poly_scale

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^)|(\*)|(\+)|(-)|(\()|(\)))")


class OldParser:
    """The reference parser: integer coefficients, '^' powers, '*' optional, parentheses."""

    def __init__(self, text, ring):
        self.ring = ring
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip() == "":
                    break
                raise UsageError(f"cannot tokenize polynomial at: {text[pos:]!r}")
            pos = m.end()
            for kind, val in enumerate(m.groups()):
                if val is not None:
                    if kind == 1:
                        self.tokens.extend(self._split_names(val))
                    else:
                        self.tokens.append((kind, val))
                    break
        self.i = 0

    def _split_names(self, text):
        if text in self.ring.var_index:
            return [(1, text)]
        names = sorted(self.ring.variables, key=len, reverse=True)
        out = []
        rest = text
        while rest:
            for name in names:
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

    def parse(self):
        p = self.expr()
        if self.i != len(self.tokens):
            raise UsageError(f"trailing tokens in polynomial: {self.tokens[self.i:]}")
        return p

    def expr(self):
        sign = 1
        kind, _ = self.peek()
        if kind in (4, 5):
            self.next()
            sign = 1 if kind == 4 else -1
        out = poly_scale(self.term(), sign, self.ring.field)
        while True:
            kind, _ = self.peek()
            if kind == 4:
                self.next()
                out = poly_add(out, self.term(), self.ring.field)
            elif kind == 5:
                self.next()
                out = poly_add(out, poly_scale(self.term(), -1, self.ring.field), self.ring.field)
            else:
                return out

    def term(self):
        out = self.factor()
        while True:
            kind, _ = self.peek()
            if kind == 3:
                self.next()
                out = poly_mul(out, self.factor(), self.ring.field)
            elif kind in (0, 1, 6):
                out = poly_mul(out, self.factor(), self.ring.field)
            else:
                return out

    def factor(self):
        kind, val = self.next()
        if kind == 0:
            base = {self.ring.unit_mono: self.ring.field.element(int(val))}
            if base[self.ring.unit_mono] == 0:
                base = {}
        elif kind == 1:
            if val not in self.ring.var_index:
                raise UsageError(f"unknown variable {val!r}")
            e = [0] * len(self.ring.variables)
            e[self.ring.var_index[val]] = 1
            base = {tuple(e): self.ring.field.element(1)}
        elif kind == 6:
            base = self.expr()
            kind2, _ = self.next()
            if kind2 != 7:
                raise UsageError("unbalanced parenthesis in polynomial")
        else:
            raise UsageError("expected a coefficient, variable or '('")
        kind, _ = self.peek()
        if kind == 2:
            self.next()
            kind2, val2 = self.next()
            if kind2 != 0:
                raise UsageError("exponent must be a nonnegative integer")
            out = {self.ring.unit_mono: self.ring.field.element(1)}
            for _ in range(int(val2)):
                out = poly_mul(out, base, self.ring.field)
            return out
        return base


def outcome(parse, text):
    """("ok", items with coefficient types) or ("error", the UsageError message)."""
    try:
        poly = parse(text)
    except UsageError as err:
        return "error", str(err)
    return "ok", sorted((m, c, type(c).__name__) for m, c in poly.items())


def assert_same_parse(R, text):
    want = outcome(lambda t: OldParser(t, R).parse(), text)
    assert outcome(R.parse, text) == want, text


P = 7
RINGS = {"GF(7)": WeightedPolyRing(P, ["x", "y", "zz"]),
         "QQ": WeightedPolyRing(0, ["x", "y", "zz"])}

_ATOM = st.one_of(st.integers(0, 5 * P).map(str), st.sampled_from(["x", "y", "zz"]))


def _powered(base, top):
    return st.tuples(base, st.one_of(st.just(""), st.integers(0, top).map(lambda n: f"^{n}")))\
        .map("".join)


def _product(factors):
    """Factors joined by '*' or by juxtaposition.

    A factor opening with a digit is set apart by a space, so that an
    exponent and a coefficient do not run together into one number.
    """
    joins = st.sampled_from(["*", " * ", " ", ""])
    return st.tuples(factors, st.lists(st.tuples(joins, factors), max_size=2)).map(
        lambda t: t[0] + "".join((j or " " * f[0].isdigit()) + f for j, f in t[1]))


def _sum(terms):
    """An optional leading sign, then terms joined by '+' or '-'."""
    ops = st.sampled_from(["+", "-", " - ", " + "])
    return st.tuples(st.sampled_from(["", "-", "+"]), terms,
                     st.lists(st.tuples(ops, terms), max_size=2)).map(
        lambda t: t[0] + t[1] + "".join(op + f for op, f in t[2]))


# sums of products of powered atoms and parenthesized sums: signs, juxtaposition,
# powers up to 12 on atoms (4 on a group), coefficients at or above p
POLY_TEXT = st.recursive(
    _sum(_product(_powered(_ATOM, 12))),
    lambda inner: _sum(_product(st.one_of(_powered(_ATOM, 12),
                                          _powered(inner.map(lambda s: f"({s})"), 4)))),
    max_leaves=6)


@pytest.mark.parametrize("field", sorted(RINGS))
@settings(max_examples=100, deadline=None)
@given(text=POLY_TEXT)
def test_parser_matches_the_reference_on_wellformed_strings(field, text):
    assert_same_parse(RINGS[field], text)


@pytest.mark.parametrize("field", sorted(RINGS))
@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="xyz0123456789+-*^() $", max_size=12))
def test_parser_matches_the_reference_on_arbitrary_strings(field, text):
    assume(not re.search(r"\^\s*\d{3}", text))  # the reference multiplies n times
    assert_same_parse(RINGS[field], text)


@pytest.mark.parametrize("text, message", [
    ("", "expected a coefficient, variable or '('"),
    ("x +", "expected a coefficient, variable or '('"),
    ("--x", "expected a coefficient, variable or '('"),
    ("x*-y", "expected a coefficient, variable or '('"),
    ("x^y", "exponent must be a nonnegative integer"),
    ("x^-1", "exponent must be a nonnegative integer"),
    ("x^", "exponent must be a nonnegative integer"),
    ("(x + y", "unbalanced parenthesis in polynomial"),
    ("(x + y]", "cannot tokenize polynomial at: ']'"),
    ("x $ y", "cannot tokenize polynomial at: ' $ y'"),
    ("q", "unknown variable 'q'"),
    ("xq", "unknown variable 'q'"),
    ("x2", "unknown variable '2'"),
    ("x)", "trailing tokens in polynomial: [(7, ')')]"),
    ("x^2^3", "trailing tokens in polynomial: [(2, '^'), (0, '3')]"),
])
@pytest.mark.parametrize("field", sorted(RINGS))
def test_malformed_strings_raise_the_same_messages(field, text, message):
    R = RINGS[field]
    assert outcome(R.parse, text) == ("error", message)
    assert_same_parse(R, text)


@pytest.mark.parametrize("text, want", [
    ("x^12", {(12, 0, 0): 1}),
    ("9x^0", {(0, 0, 0): 2}),
    ("0^0", {(0, 0, 0): 1}),
    ("0^3 + 7x", {}),
    ("(3x zz)^3", {(3, 0, 3): 6}),
    ("-(2y)^5 + 32 y^5", {}),
    ("xzz - zzx", {}),
    ("(x+y)^2 - 2xy", {(2, 0, 0): 1, (0, 2, 0): 1}),
])
def test_parser_table_over_gf7(text, want):
    assert RINGS["GF(7)"].parse(text) == want
    assert_same_parse(RINGS["GF(7)"], text)


def test_powers_over_qq_are_fractions():
    got = RINGS["QQ"].parse("(-3x)^3 + (2y)^0")
    assert got == {(3, 0, 0): -27, (0, 0, 0): 1}
    assert all(type(c) is Fraction for c in got.values())


def piece_normal_form(A, poly):
    """The normal form through the degree-d piece in every degree."""
    by_deg = {}
    for m, c in poly.items():
        by_deg.setdefault(A.ambient.wdeg(m), {})[m] = c
    out = {}
    for d, part in by_deg.items():
        pc = A.piece(d)
        if pc.rel_space.dim:
            rows = A.normal_form_matrix(d)._array()[[pc.index[m] for m in part]]
            coeffs = A.field.vector(list(part.values()))
            red = A.field.matmul(coeffs[None], rows)[0].tolist()
        else:
            red = [A.field.element(0)] * pc.dim
            for m, c in part.items():
                red[pc.index[m]] = c
            red = A.field.vector(red).tolist()
        for i, c in zip(pc.std, red):
            if c:
                out[pc.monos[i]] = c
    return out


def _quotients():
    """(name, fresh-ring factory): rings with relations, and relation-free ones."""
    plain = {p: WeightedPolyRing(p, ["x", "y", "z"], [1, 2, 3]) for p in (P, 0)}
    out = []
    for p, tag in ((P, "gf7"), (0, "qq")):
        out += [(f"{tag}/free", lambda p=p: WeightedPolyRing(p, ["x", "y", "z"], [1, 2, 3])
                 .relation_free),
                (f"{tag}/quotient([])", lambda p=p: plain[p].quotient([])),
                (f"{tag}/x^2+y^2", lambda p=p: WeightedPolyRing(p, ["x", "y"]).quotient(["x^2+y^2"])),
                (f"{tag}/y^3-z^2", lambda p=p: WeightedPolyRing(p, ["x", "y", "z"], [1, 2, 3])
                 .quotient(["y^3-z^2", "x^4*y - 3 x^6"]))]
    out.append(("nonci", lambda: nonci_gorenstein_ring(P)))
    out.append(("A3:dim2", lambda: load_catalog("ade:A3:dim2").ring))
    return out


QUOTIENTS = _quotients()


def _coefficient(p):
    ints = st.integers(-4 * max(p, 7), 4 * max(p, 7))
    fracs = st.fractions(min_value=-20, max_value=20, max_denominator=30)
    if p:
        fracs = fracs.filter(lambda f: f.denominator % p)
    return st.one_of(ints, fracs)


@st.composite
def homogeneous_polys(draw, A):
    d = draw(st.integers(0, 9))
    monos = A.ambient.monomials(d)
    assume(monos)
    picked = draw(st.lists(st.sampled_from(monos), max_size=5, unique=True))
    return {m: draw(_coefficient(A.characteristic)) for m in picked}


def _assert_same_element(A, poly):
    want = piece_normal_form(A, poly)
    got = A.element(poly)
    assert list(got.poly.items()) == list(want.items())
    assert [type(c) for c in got.poly.values()] == [type(c) for c in want.values()]


@pytest.mark.parametrize("name, make", QUOTIENTS, ids=[n for n, _ in QUOTIENTS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_element_matches_the_piece_reduction(name, make, data):
    A = make()
    _assert_same_element(A, data.draw(homogeneous_polys(A)))


@pytest.mark.parametrize("name, make", QUOTIENTS, ids=[n for n, _ in QUOTIENTS])
def test_element_table_matches_the_piece_reduction(name, make):
    A = make()
    n, p = len(A.variables), A.characteristic
    x, y = tuple(int(i == 0) for i in range(n)), tuple(int(i == 1) for i in range(n))
    sq = lambda m: tuple(2 * e for e in m)  # noqa: E731
    cases = [{}, {A.ambient.unit_mono: -1}, {A.ambient.unit_mono: 3 * max(p, 1)},
             {x: -(p or 1)}, {x: Fraction(-3, 2)}, {x: p + 2} if p else {x: Fraction(5, 3)}]
    if A.ambient.wdeg(x) == A.ambient.wdeg(y):
        cases += [{x: 1, y: -1}, {sq(x): 1, sq(y): 1}, {sq(x): Fraction(1, 2), sq(y): -2 * (p or 1) - 1}]
    for poly in cases:
        _assert_same_element(A, poly)
    # a sum over several degrees, as ``normal_form`` takes it
    mixed = {x: 5, sq(x): -1, A.ambient.unit_mono: Fraction(2, 3)}
    assert A.normal_form(mixed) == piece_normal_form(A, mixed)


def test_the_relation_free_ring_builds_no_piece_for_elements():
    R = WeightedPolyRing(P, ["x", "y"], [3, 2])
    Q = R.relation_free
    assert Q is R.relation_free and not Q.relations
    assert Q.element("3x^2 + 11y^3 - 3y^3").poly == {(2, 0): 3, (0, 3): 1}
    assert not Q._pieces
    mf = MatrixFactorization(R, "x^2+y^3", [["x", "y^2"], ["y", "-x"]],
                             [["x", "y^2"], ["y", "-x"]])
    assert mf.poly_ring is Q and mf.validate()
    assert not Q._pieces


def test_the_zero_result_and_qq_types():
    A = RINGS["QQ"].quotient(["x^2+y^2"])
    assert A.element({(2, 0, 0): Fraction(1, 2), (0, 2, 0): Fraction(1, 2)}).poly == {}
    got = A.element({(1, 0, 0): 2}).poly
    assert got == {(1, 0, 0): 2} and type(got[(1, 0, 0)]) is Fraction
    assert A.field == QQ
