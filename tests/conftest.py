import numpy as np
import pytest

from pauli_volumes.channel import ChannelSpec
from pauli_volumes.mub import MubSet, build_weyl_mubs, choi_state


@pytest.fixture(scope="session")
def mub_cache():
    """Basis families are pure functions of d; build each prime once."""
    cache: dict[int, MubSet] = {}

    def get(d: int) -> MubSet:
        if d not in cache:
            cache[d] = build_weyl_mubs(d)
        return cache[d]

    return get


@pytest.fixture(scope="session")
def choi_stack(mub_cache):
    """Choi matrices of the building blocks, aligned with ``mixing_weights``:
    Phi_0, then Phi_1..Phi_N, then the identity map when N <= d (for N = d+1
    its weight is always zero and it is left out).

    Each block is the Choi state of an extreme channel: all lambda = 0 gives
    Phi_0, lambda_alpha = 1 with the rest 0 gives Phi_alpha, and all lambda = 1
    gives the identity. Contracting float mixing weights with the stack
    yields any channel's Choi matrix, which makes bulk spectral checks cheap.
    """
    cache: dict[tuple[int, int], np.ndarray] = {}

    def get(d: int, N: int) -> np.ndarray:
        if (d, N) not in cache:
            n = N if N == d + 1 else N + 1
            extremes = [[0] * n] + [[int(b == a) for b in range(n)] for a in range(N)]
            if N <= d:
                extremes.append([1] * n)
            m = mub_cache(d)
            cache[(d, N)] = np.array(
                [choi_state(ChannelSpec.make(d, N, lams), m) for lams in extremes]
            )
        return cache[(d, N)]

    return get
