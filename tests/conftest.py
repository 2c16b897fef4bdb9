import pytest

from synge_riemann.eos import GasKind


@pytest.fixture(params=[GasKind.MONATOMIC, GasKind.DIATOMIC], ids=["monatomic", "diatomic"])
def gas(request):
    return request.param
