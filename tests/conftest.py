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
