import pytest

import mcmkit.resolution
from mcmkit.modules import GradedModule, _depth_as, _minimal_as


def factorization_free(M):
    """M without the matrix factorization it was built from: the same ring,
    degrees, presentation, label, depth and minimality, so its resolution
    captures each kernel by a scan."""
    C = _depth_as(GradedModule(M.ring, M.gen_degs, M.rel_degs, M.presentation,
                               label=M.label, check=False), M._depth)
    return _minimal_as(C, C) if M._minimal is M else C


def tate_free(k):
    """k presented by (2 x_1, x_2, ..., x_n) instead of the variables: still A/m, of
    depth 0, but its resolution captures each kernel by a scan rather than reading
    Tate's complex.  The characteristic must not be 2."""
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
