"""Kernel capture in kernel coordinates against a scan by definition.

``modules.capture_kernel`` reads each degree's new generators off one
elimination of the previous kernels' images, taken on the free columns of
the current kernel basis.  The reference below is the plain scan: in each
degree d the span of the generators found so far is their degree-d image
in the free module F, one ``BlockSystem(...).at(d)`` of their columns, and
every kernel column outside it is tested with ``RowSpace.contains`` and
taken, one at a time.  Both stop at the same certified ``stop`` or by the
same stall rule, return the same ``(gen_degs, grid, scanned_to)`` and
raise ``DegreeBoundExceeded`` at the same ``degree_cap``.
"""

import pytest

import mcmkit.modules
import mcmkit.resolution
from mcmkit.catalog import load_catalog, nonci_gorenstein_ring
from mcmkit.errors import DegreeBoundExceeded
from mcmkit.linalg import RowSpace
from mcmkit.mf import MatrixFactorization, coker_module
from mcmkit.modules import (
    GradedModule,
    capture_kernel,
    default_stall,
    free_module,
    maximal_ideal_module,
    residue_field_module,
    submodule_presentation,
)
from mcmkit.resolution import resolve
from mcmkit.rings import BlockSystem, WeightedPolyRing
from conftest import cold_chain


def reference_capture_kernel(ring, col_degs, matrix_at, degree_cap, stall=None, stop=None):
    """The plain scan: add each kernel column the generators found so far do not reach."""
    if stall is None:
        stall = default_stall(ring)
    found = []  # (degree, ring-element coordinates over the generators of F)
    d = min(col_degs)
    last_event = max(col_degs)
    while d <= degree_cap:
        ker = matrix_at(d).kernel_basis()
        if ker.ncols:
            grid = [[col[k] for _, col in found] for k in range(len(col_degs))]
            image = BlockSystem(ring, grid, col_degs, [e for e, _ in found]).at(d)
            span = RowSpace(ring.field, ker.nrows)
            span.add_matrix(image.transpose())
            for vec in ker.transpose().rows():
                if span.contains(vec):
                    continue
                span.add(vec)  # a generator of degree d is its own degree-d image
                found.append((d, ring.split_coords([vec], [d - c for c in col_degs])[0]))
                last_event = d
        if stop is not None and d >= stop:
            break
        if stop is None and d >= last_event + stall and d >= max(col_degs) + stall:
            break
        d += 1
    else:
        raise DegreeBoundExceeded(
            f"inconclusive: degree bound (kernel capture still active at degree {degree_cap})")
    grid = tuple(tuple(col[k] for _, col in found) for k in range(len(col_degs)))
    return tuple(e for e, _ in found), grid, d


@pytest.fixture
def compared(monkeypatch):
    """Every capture_kernel call also runs the reference; the list holds one entry per call."""
    calls = []

    def checked(ring, col_degs, matrix_at, degree_cap, stall=None, stop=None):
        got = capture_kernel(ring, col_degs, matrix_at, degree_cap, stall, stop)
        want = reference_capture_kernel(ring, col_degs, matrix_at, degree_cap, stall, stop)
        assert got == want, (col_degs, got[0], want[0])
        calls.append(len(got[0]))
        return got

    monkeypatch.setattr(mcmkit.modules, "capture_kernel", checked)
    monkeypatch.setattr(mcmkit.resolution, "capture_kernel", checked)
    return calls


@pytest.mark.parametrize("name", ["ade:A3:dim1", "ade:A2:dim2"])
def test_kernel_step_chains_of_a_catalog(compared, name):
    # scanned step by step: their resolutions would read these off known complexes
    cat = load_catalog(name, 5)
    for M in [M for _, M in cat.modules()] + [residue_field_module(cat.ring),
                                              maximal_ideal_module(cat.ring)]:
        cold_chain(M, 4)
    assert len(compared) >= 8 and sum(compared) > 0


def test_residue_field_of_two_products(compared):
    A = WeightedPolyRing(5, ["x", "y", "z", "w"]).quotient(["x*y", "z*w"])
    # Tate: (1+t)^4 / (1-t^2)^2; scanned step by step, as resolve reads Tate's complex
    assert cold_chain(residue_field_module(A), 5).betti_numbers(5) == [1, 4, 8, 12, 16, 20]
    assert len(compared) >= 4


def test_residue_field_of_two_products_to_six(compared):
    # many blocks of F share a degree: the images run block by block over them
    A = WeightedPolyRing(5, ["x", "y", "z", "w"]).quotient(["x*y", "z*w"])
    assert cold_chain(residue_field_module(A), 6).betti_numbers(6) == [1, 4, 8, 12, 16, 20, 24]
    assert max(compared) >= 20


def test_residue_field_of_a_non_ci_gorenstein_ring(compared):
    # exponential growth: the last captures have 55 and 144 generators
    A = nonci_gorenstein_ring()
    assert resolve(residue_field_module(A), 5).betti_numbers(5) == [1, 3, 8, 21, 55, 144]
    assert max(compared) == 144


def test_curve_module_over_qq(compared):
    R = WeightedPolyRing(0, ["x", "y"], [4, 2])
    f = "x^2+y^4"
    phi = [["x", "y"], ["y^3", "-x"]]
    M, _ = coker_module(MatrixFactorization(R, f, phi, phi), ring=R.quotient([f])).normalized()
    assert cold_chain(M, 3).betti_numbers(3) == [2, 2, 2, 2]
    assert compared


def test_weighted_ring_over_a_large_prime(compared):
    # the weight-2 variable makes the scan read kernels two degrees back
    A = WeightedPolyRing(2**31 - 1, ["x", "y", "z"], [1, 1, 2]).quotient(
        ["x^2-y^2", "x*y*z", "z^2+x^3*y"])
    resolve(residue_field_module(A), 3)
    resolve(GradedModule(A, [0], [2], [["z"]]), 3)
    assert len(compared) >= 4


def test_maximal_ideal_through_submodule_presentation(compared):
    # the submodule of A generated by the variables, its scan stopped at max(w1 + w2, 3)
    A = WeightedPolyRing(7, ["x", "y", "z"], [1, 1, 2]).quotient(["x*z-y^3"])
    m, kept = submodule_presentation(free_module(A, [0]), [list(A.gens())], A.weights, stop=3)
    assert m.gen_degs == (1, 1, 2) and kept == [0, 1, 2] and compared


def test_koszul_family_gets_the_koszul_betti_numbers(compared):
    # for (4, 4), (4, 5) and (5, 5) the Koszul syzygy of degree a+b lies past
    # the stall window; the certified stop T + g_2 = a+b+1 reaches it
    A = WeightedPolyRing(7, ["x", "y", "z"]).quotient(["z^2"])
    for a in range(1, 6):
        for b in range(a, 6):
            M = GradedModule(A, [0], [a, b], [[f"x^{a}", f"y^{b}"]])
            assert cold_chain(M, 3).betti_numbers(3) == [1, 2, 1, 0], (a, b)
    assert len(compared) >= 15


def test_degree_bound_is_raised_at_the_same_cap():
    A = WeightedPolyRing(5, ["x", "y", "z"], [1, 1, 2]).quotient(["x^2", "y*z"])
    k = residue_field_module(A)
    col_degs = k.rel_degs
    matrix_at = BlockSystem(A, k.presentation, k.gen_degs, col_degs).at

    _, _, scanned_to = reference_capture_kernel(A, col_degs, matrix_at, 100)
    for cap in (scanned_to - 1, min(col_degs) + 1):
        for scan in (capture_kernel, reference_capture_kernel):
            with pytest.raises(DegreeBoundExceeded):
                scan(A, col_degs, matrix_at, cap)
    assert capture_kernel(A, col_degs, matrix_at, scanned_to) == \
        reference_capture_kernel(A, col_degs, matrix_at, scanned_to)
