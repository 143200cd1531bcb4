import pytest

import mcmkit.resolution
from mcmkit.modules import GradedModule, _depth_as, _minimal_as
from mcmkit.resolution import FreeResolution, Step
from mcmkit.rings import poly_key


def cold_chain(M, H, degree_cap=None, stall=None, windowed=False):
    """M's resolution window with its first H steps each rebuilt by kernel_step on
    the previous step: the scan reference, read off no known complex.

    Each step gets the cap and the certified stop (None when windowed) the
    resolution gives the scan for F_i's generators, i = len(steps) + 1, and
    F_{i-1}'s degrees.  ``windowed`` drops every stop, so each scan ends by
    the stall rule.
    """
    res = FreeResolution(M, degree_cap, stall)
    while len(res.steps) < H:
        prev = res.steps[-1]
        if not prev.col_degs:
            res.steps.append(Step(prev.col_degs, (), ()))
            continue
        i = len(res.steps) + 1
        stop = res.stop(i, prev.col_degs)
        step = mcmkit.resolution.kernel_step(M.ring, prev.row_degs, prev.col_degs, prev.entries,
                                             degree_cap=res._auto_cap(i, stop), stall=stall,
                                             stop=None if windowed else stop)
        res.steps.append(step)
    return res


def step_data(step):
    entries = tuple(tuple(poly_key(e.poly) for e in row) for row in step.entries)
    return step.row_degs, step.col_degs, entries, step.scanned_to, step.certified


def step_shape(step):
    """A step's data but its entries, which depend on the bases chosen."""
    return step.row_degs, step.col_degs, step.scanned_to, step.certified


def factorization_free(M):
    """M without the matrix factorization it was built from: the same ring,
    degrees, presentation, label, depth and minimality, so its resolution
    solves for the factorization instead of reading it off the memo."""
    C = _depth_as(GradedModule(M.ring, M.gen_degs, M.rel_degs, M.presentation,
                               label=M.label, check=False), M._depth)
    return _minimal_as(C, C) if M._minimal is M else C


def tate_free(k):
    """k presented by (2 x_1, x_2, ..., x_n) instead of the variables: still A/m, of
    depth 0, but its resolution does not read Tate's complex: it captures each
    kernel by a scan, or over a hypersurface solves for its periodic tail once
    Syz_d(k) is maximal Cohen-Macaulay.  The characteristic must not be 2."""
    A = k.ring
    row = [x.scale(2) if j == 0 else x for j, x in enumerate(A.gens())]
    assert row[0] != A.gens()[0]
    return _depth_as(GradedModule(A, [0], list(A.weights), [row], label=k.label, check=False), 0)


@pytest.fixture
def kernel_step_calls(monkeypatch):
    """A list that grows by one on every call of ``resolution.kernel_step``."""
    calls = []
    real = mcmkit.resolution.kernel_step

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mcmkit.resolution, "kernel_step", counting)
    return calls
