"""The benchmark's closed forms, against cases worked out by hand.

    python3 -m pytest bench/tests -q
"""

import pytest

import checks
import jobs
import reference
import run


# -- series ---------------------------------------------------------------

def test_series_quotient_geometric():
    assert checks.series_quotient([1], [1, -1], 5) == [1, 1, 1, 1, 1]


def test_series_quotient_needs_unit_constant_term():
    with pytest.raises(ValueError):
        checks.series_quotient([1], [2, -1], 3)


def test_tate_hypersurface_curve():
    # (1+t)^2 / (1-t^2) = (1+t) / (1-t) = 1 + 2t + 2t^2 + ...
    assert checks.tate_betti(2, 1, 6) == [1, 2, 2, 2, 2, 2]


def test_tate_hypersurface_surface():
    # (1+t)^3 / (1-t^2) = (1+t)^2 / (1-t) = 1 + 3t + 4t^2 + 4t^3 + ...
    assert checks.tate_betti(3, 1, 5) == [1, 3, 4, 4, 4]


def test_tate_codimension_two():
    # k[x,y]/(x^2, y^2): 1/(1-t)^2;  k[x,y,z,w]/(xy, zw): (1+t)^2/(1-t)^2
    assert checks.tate_betti(2, 2, 5) == [1, 2, 3, 4, 5]
    assert checks.tate_betti(4, 2, 6) == [1, 4, 8, 12, 16, 20]


def test_nonci_fibonacci_growth():
    # 1/(1-3t+t^2): every other Fibonacci number
    assert checks.nonci_betti(7) == [1, 3, 8, 21, 55, 144, 377]


def test_koszul_betti():
    assert checks.koszul_betti(5) == [1, 2, 1, 0, 0]
    assert checks.koszul_betti(2) == [1, 2]


# -- AR quivers -----------------------------------------------------------

def test_a2_curve_is_a_chain_with_a_loop():
    assert checks.known_ar_quiver(2, 1) == {("A", "I1"): 1, ("I1", "A"): 1, ("I1", "I1"): 1}


def test_a1_curve_branches_at_the_ring():
    assert checks.known_ar_quiver(1, 1) == {
        ("A", "N+"): 1, ("N+", "A"): 1, ("A", "N-"): 1, ("N-", "A"): 1}


def test_a3_curve_branches_at_i1():
    assert checks.known_ar_quiver(3, 1) == {
        ("A", "I1"): 1, ("I1", "A"): 1,
        ("I1", "N+"): 1, ("N+", "I1"): 1, ("I1", "N-"): 1, ("N-", "I1"): 1}


def test_a1_surface_has_double_arrows():
    assert checks.known_ar_quiver(1, 2) == {("A", "M1"): 2, ("M1", "A"): 2}


def test_a2_surface_is_the_mckay_triangle():
    assert checks.known_ar_quiver(2, 2) == {
        ("A", "M1"): 1, ("M1", "A"): 1, ("M1", "M2"): 1, ("M2", "M1"): 1,
        ("M2", "A"): 1, ("A", "M2"): 1}


@pytest.mark.parametrize("n", range(1, 9))
def test_curve_arrow_counts(n):
    want = n + 1 if n % 2 == 0 else n + 3
    assert sum(checks.known_ar_quiver(n, 1).values()) == want


@pytest.mark.parametrize("n", range(1, 5))
def test_surface_arrow_counts(n):
    assert sum(checks.known_ar_quiver(n, 2).values()) == 2 * (n + 1)


def test_expected_multiplicities():
    assert [checks.expected_e(v) for v in ("A", "I1", "M3", "N+", "N-")] == [2, 2, 2, 1, 1]


def test_tau_bijection():
    assert checks.tau_is_bijection({"N+": "N-", "N-": "N+"}, ["N+", "N-"]) is None
    assert checks.tau_is_bijection({"N+": "N+", "N-": "N+"}, ["N+", "N-"]) is not None
    assert checks.tau_is_bijection({"N+": "N-"}, ["N+", "N-"]) is not None


# -- Krull-Schmidt --------------------------------------------------------

def test_krull_schmidt_ignores_order():
    assert checks.ks_isomorphic(["N+", "N-"], ["N-", "N+"])
    assert checks.ks_isomorphic(["N+", "N+", "N-"], ["N+", "N-", "N+"])


def test_krull_schmidt_counts_multiplicity():
    assert not checks.ks_isomorphic(["N+", "N+", "N+"], ["N+", "N+", "N-"])
    assert not checks.ks_isomorphic(["N+"] * 4, ["N+"] * 3 + ["N-"])
    assert not checks.ks_isomorphic(["N+", "N+"], ["N+"])


def test_direct_sum_expectations():
    want = [checks.ks_isomorphic(a, b) for a, b in jobs.DIRECT_SUMS]
    assert want == [True, False, False, True, False, False]


# -- matrix factorizations ------------------------------------------------

def test_mf_product_of_a2_curve_factorization():
    phi = [["x", "y"], ["y^2", "-x"]]
    assert checks.mf_product_error(["x", "y"], 7, "x^2+y^3", phi, phi) is None


def test_mf_product_uses_the_modulus():
    # (x + 2y^2)(x - 2y^2) = x^2 - 4y^4, which is x^2 + y^4 mod 5 but not mod 7
    phi, psi = [["x + 2*y^2"]], [["x - 2*y^2"]]
    assert checks.mf_product_error(["x", "y"], 5, "x^2+y^4", phi, psi) is None
    assert checks.mf_product_error(["x", "y"], 7, "x^2+y^4", phi, psi) is not None


def test_mf_product_rejects_wrong_factor():
    phi = [["x", "y"], ["y^2", "-x"]]
    psi = [["x", "y"], ["y^2", "x"]]
    assert checks.mf_product_error(["x", "y"], 7, "x^2+y^3", phi, psi) is not None


# -- the known fault stays a counted failure ------------------------------

def test_checker_marks_short_koszul_answer_failed():
    job = jobs._betti_job("koszul(x^4,y^4)/resolve", None, 4, checks.koszul_betti(5),
                          jobs.FAULT_STALL)
    assert job.check([1, 2, 0, 0, 0]) is not None
    assert job.check([1, 2, 1, 0, 0]) is None


def test_family_faults_are_exactly_min_at_least_four():
    faulty = [(a, b) for a, b in jobs.FAMILY if min(a, b) >= 4]
    assert faulty == [(4, 4), (4, 5), (5, 5)]


# -- aggregation ----------------------------------------------------------

def test_tail_leaves_ten_jobs_beyond():
    times = [float(i) for i in range(40)]
    assert run.tail(times) == 29.0
    assert sum(t > run.tail(times) for t in times) == 10


def test_tally_separates_known_faults():
    rounds = [{"jobs": [
        {"name": "a", "s": 1.0, "problem": None, "known_fault": None},
        {"name": "b", "s": 1.0, "problem": "wrong", "known_fault": "stall rule"},
    ]}]
    assert run.tally(rounds)[:3] == (True, 2, 1)
    rounds[0]["jobs"][0]["problem"] = "wrong"
    assert run.tally(rounds)[:3] == (False, 2, 2)


# -- scaling by the reference loop ----------------------------------------

def test_a_job_is_scaled_by_the_references_on_both_sides():
    assert reference.bracketing([1.0, 3.0, 3.0]) == [2.0, 3.0]


def test_job_times_scale_each_job_and_take_the_median_over_rounds():
    slow = reference.LOOP_S * 2
    rounds = [
        {"jobs": [{"name": "a", "s": 2.0}, {"name": "b", "s": 4.0}], "ref_s": [slow] * 3},
        {"jobs": [{"name": "b", "s": 2.0}, {"name": "a", "s": 1.0}],
         "ref_s": [reference.LOOP_S] * 3},
        {"jobs": [{"name": "a", "s": 5.0}, {"name": "b", "s": 2.0}],
         "ref_s": [reference.LOOP_S] * 3},
    ]
    # a at the reference speed: 1.0, 1.0, 5.0; b: 2.0, 2.0, 2.0
    assert sorted(run.job_times(rounds, reference.LOOP_S)) == [1.0, 2.0]
