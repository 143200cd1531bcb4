import pytest

import mcmkit.resolution


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
