"""The shipped catalogs, built from exponent dicts, against the strings they were once parsed from.

Each factorization's phi, psi, f and twists must equal the parsed ones,
down to the order of each polynomial's terms and the type of each
coefficient.  A reduced factorization's cokernel is kept as its own
minimal form, so it must equal what a fresh ``minimized()`` gives, for the
factorization, its shift and its transpose; a factorization with a unit
entry must still be minimized.
"""

import pytest

from mcmkit.catalog import catalog_names, load_catalog, sqrt_minus_one
from mcmkit.errors import UsageError
from mcmkit.mf import MatrixFactorization, coker_module, mf_shift, mf_transpose
from mcmkit.modules import GradedModule
from mcmkit.rings import WeightedPolyRing

MODULI = (5, 13, 17, 29, 2_147_483_629)


def index(name):
    _, an, dim = name.split(":")
    return int(an[1:]), int(dim[3:])


def admissible(name, p):
    n, dim = index(name)
    return 2 * (n + 1) % p != 0 and (dim == 1 and n % 2 == 0 or p % 4 == 1)


def string_catalog(name, p):
    """(f, [(label, phi, psi)]) as strings, as the catalogs used to write them."""
    n, dim = index(name)
    i = sqrt_minus_one(p) if dim == 2 or n % 2 else None
    out = []
    if dim == 1:
        for j in range(1, n // 2 + 1):
            phi = [["x", f"y^{j}"], [f"y^{n + 1 - j}", "-x"]]
            out.append((f"I{j}", phi, phi))
        if n % 2:
            m = (n + 1) // 2
            plus, minus = [[f"x+{i}*y^{m}"]], [[f"x-{i}*y^{m}"]]
            out += [("N+", plus, minus), ("N-", minus, plus)]
        return f"x^2+y^{n + 1}", out
    u, v = f"x+{i}*y", f"x-{i}*y"
    for j in range(1, n + 1):
        phi = [[u, f"z^{j}"], [f"z^{n + 1 - j}", f"-({v})"]]
        psi = [[v, f"z^{j}"], [f"z^{n + 1 - j}", f"-({u})"]]
        out.append((f"M{j}", phi, psi))
    return f"x^2+y^2+z^{n + 1}", out


def terms(e):
    """A polynomial's terms in their order, each coefficient with its type."""
    return [(m, c, type(c)) for m, c in e.poly.items()]


def grid_terms(grid):
    return [[terms(e) for e in row] for row in grid]


CASES = [(name, p) for name in catalog_names() for p in MODULI]


@pytest.mark.parametrize("name,p", CASES)
def test_catalog_factorizations_equal_the_parsed_strings(name, p):
    if not admissible(name, p):
        with pytest.raises(UsageError):
            load_catalog(name, p)
        return
    cat = load_catalog(name, p)
    f, listing = string_catalog(name, p)
    assert cat.f == f and terms(cat.ring.element(cat.ring.relations[0])) == terms(
        cat.ring.element(f))
    assert [label for label, _ in cat.mfs] == [label for label, _, _ in listing]
    for (label, mf), (_, phi, psi) in zip(cat.mfs, listing):
        ref = MatrixFactorization(cat.ambient, f, phi, psi, label=label)
        assert mf.label == ref.label
        assert terms(mf.f) == terms(ref.f)
        assert grid_terms(mf.phi) == grid_terms(ref.phi)
        assert grid_terms(mf.psi) == grid_terms(ref.psi)
        assert (mf.row_degs, mf.col_degs) == (ref.row_degs, ref.col_degs)


@pytest.mark.parametrize("name,p", [c for c in CASES if admissible(*c)])
def test_catalog_cokernels_equal_a_fresh_minimization(name, p):
    cat = load_catalog(name, p)
    A = cat.ring
    for _, mf in cat.mfs:
        for g in (mf, mf_shift(mf), mf_transpose(mf)):
            assert g.is_reduced()
            M = coker_module(g, ring=A)
            fresh = GradedModule(A, g.row_degs, g.col_degs,
                                 [[A.element(e.poly) for e in row] for row in g.phi],
                                 label=M.label, check=False)
            N = fresh.minimized()
            assert N is not fresh and N.key == M.key and N.label == M.label
            assert M.minimized() is M


def test_factorization_with_a_unit_entry_is_still_minimized():
    R = WeightedPolyRing(5, ["x", "y"])
    mf = MatrixFactorization(R, "x*y", [[1, 0], [0, "x"]], [["x*y", 0], [0, "y"]])
    assert mf.validate() and not mf.is_reduced()
    M = coker_module(mf)
    # the unit entry kills the first generator: coker(phi) is A/(x)
    assert (M.gen_degs, M.rel_degs) == ((0,), (1,))
    assert M.presentation[0][0] == M.ring.element("x")
    assert M.minimized() is M
