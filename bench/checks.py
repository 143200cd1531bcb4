"""Closed forms the benchmark checks mcmkit's answers against.

Nothing here calls mcmkit.  Each expected value comes from the
mathematics, not from a stored copy of the program's output:

* Betti numbers of the residue field over a complete intersection with
  relations in m^2 follow Tate's series (1+t)^e / (1-t^2)^c, e the
  embedding dimension and c the codimension (Tate 1957; Avramov,
  "Infinite free resolutions", 1998, Thm. 2.3.3).
* Over k[x,y,z]/(xy, xz, yz, x^2-y^2, x^2-z^2), Gorenstein with Hilbert
  function (1, 3, 1) but not a complete intersection, the Poincare series
  of k is 1 / (1 - 3t + t^2) (Avramov 1998, Sect. 5.3, socle degree 2).
* Over a hypersurface a maximal Cohen-Macaulay module without free
  summands has a 2-periodic minimal resolution by a matrix factorization,
  so its Betti numbers are constant, equal to the size of the
  factorization (Eisenbud, Trans. AMS 260, 1980).
* A/(x^a, y^b) over A = k[x,y,z]/(z^2) is resolved by the Koszul complex
  of the regular sequence x^a, y^b, so beta = (1, 2, 1, 0, ...).
* The AR quivers of the A_n singularities (Yoshino, "Cohen-Macaulay
  modules over Cohen-Macaulay rings", ch. 9-10): for surfaces the McKay
  quiver of Z/(n+1), for curves a chain ending in a loop (n even) or in
  the branch N+, N- (n odd).
* Direct sums: by Krull-Schmidt two sums of indecomposables are
  isomorphic exactly when their summand multisets agree.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# power series
# ---------------------------------------------------------------------------

def _poly_pow(base: Sequence[int], k: int) -> List[int]:
    out = [1]
    for _ in range(k):
        nxt = [0] * (len(out) + len(base) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(base):
                nxt[i + j] += a * b
        out = nxt
    return out


def series_quotient(num: Sequence[int], den: Sequence[int], n: int) -> List[int]:
    """First n coefficients of num/den as a power series (den[0] = 1)."""
    if den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    out = []
    for i in range(n):
        c = num[i] if i < len(num) else 0
        for j in range(1, min(i, len(den) - 1) + 1):
            c -= den[j] * out[i - j]
        out.append(c)
    return out


def tate_betti(e: int, c: int, n: int) -> List[int]:
    """beta_0..beta_{n-1} of k over a CI of embedding dim e and codim c."""
    return series_quotient(_poly_pow([1, 1], e), _poly_pow([1, 0, -1], c), n)


def nonci_betti(n: int) -> List[int]:
    """beta_i of k over the (1, 3, 1) Gorenstein non-CI ring: 1/(1-3t+t^2)."""
    return series_quotient([1], [1, -3, 1], n)


def koszul_betti(n: int) -> List[int]:
    """A/(f, g) for a regular sequence of length two: (1, 2, 1, 0, ...)."""
    return ([1, 2, 1] + [0] * n)[:n]


def compare(label: str, got: Sequence[int], want: Sequence[int]) -> Optional[str]:
    """None when equal, else a one-line description of the mismatch."""
    got, want = list(got), list(want)
    if got == want:
        return None
    return f"{label}: got {got}, expected {want}"


# ---------------------------------------------------------------------------
# AR quivers of the A_n singularities
# ---------------------------------------------------------------------------

def known_ar_quiver(n: int, dim: int) -> Dict[Tuple[str, str], int]:
    """Arrows (source, target) -> multiplicity of the AR quiver of A_n.

    Vertex names follow the shipped catalogs: "A" is the ring, I_j / N+ /
    N- the curve modules, M_j the surface modules.
    """
    arrows: Counter = Counter()

    def both(a, b):
        arrows[(a, b)] += 1
        arrows[(b, a)] += 1

    if dim == 2:
        cycle = ["A"] + [f"M{j}" for j in range(1, n + 1)]
        if n == 1:
            # Z/2 acts by -1 on both coordinates: two arrows each way
            both("A", "M1")
            both("A", "M1")
        else:
            for i, v in enumerate(cycle):
                both(v, cycle[(i + 1) % len(cycle)])
        return dict(arrows)
    if dim != 1:
        raise ValueError("A_n catalogs are curves or surfaces")
    chain = ["A"] + [f"I{j}" for j in range(1, n // 2 + 1)]
    for a, b in zip(chain, chain[1:]):
        both(a, b)
    if n % 2 == 0:
        arrows[(chain[-1], chain[-1])] += 1
    else:
        both(chain[-1], "N+")
        both(chain[-1], "N-")
    return dict(arrows)


def expected_e(vertex: str) -> int:
    """Multiplicity of a vertex of an A_n quiver: e(coker phi) = ord det(phi).

    det phi is -f (order 2) for the ring and the size-two factorizations
    I_j and M_j, and x +- i y^m (order 1) for the branches N+ and N-.
    """
    return 1 if vertex in ("N+", "N-") else 2


def tau_is_bijection(tau: Dict[str, str], vertices: Sequence[str]) -> Optional[str]:
    if sorted(tau) != sorted(vertices):
        return f"tau defined on {sorted(tau)}, expected {sorted(vertices)}"
    if sorted(tau.values()) != sorted(vertices):
        return f"tau is not a bijection: {tau}"
    return None


# ---------------------------------------------------------------------------
# Krull-Schmidt
# ---------------------------------------------------------------------------

def ks_isomorphic(left: Sequence[str], right: Sequence[str]) -> bool:
    """Sums of pairwise non-isomorphic indecomposables, compared by multiset."""
    return Counter(left) == Counter(right)


# ---------------------------------------------------------------------------
# matrix factorizations, multiplied out with sympy
# ---------------------------------------------------------------------------

def _sympy_matrix(rows, symbols):
    import sympy

    return sympy.Matrix([[sympy.sympify(e.replace("^", "**"), locals=symbols) for e in row]
                         for row in rows])


def mf_product_error(variables: Sequence[str], p: int, f: str, phi, psi) -> Optional[str]:
    """None when phi psi = psi phi = f Id over GF(p), else what failed."""
    import sympy

    symbols = {v: sympy.Symbol(v) for v in variables}
    gens = [symbols[v] for v in variables]
    P = _sympy_matrix(phi, symbols)
    Q = _sympy_matrix(psi, symbols)
    fx = _sympy_matrix([[f]], symbols)[0, 0]
    if P.shape[0] != P.shape[1] or P.shape != Q.shape:
        return f"shapes {P.shape} and {Q.shape} are not square and equal"
    n = P.shape[0]
    for label, prod in (("phi psi", P * Q), ("psi phi", Q * P)):
        for i in range(n):
            for j in range(n):
                want = fx if i == j else 0
                diff = sympy.Poly(sympy.expand(prod[i, j] - want), *gens, modulus=p)
                if not diff.is_zero:
                    return f"{label}[{i},{j}] - {'f' if i == j else '0'} = {diff.as_expr()}"
    return None
