import os

# one BLAS thread, as the benchmark pins it; set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

import qcrkit as q


@pytest.fixture(scope="session")
def example_state():
    return q.build_example_state()


@pytest.fixture(scope="session")
def max_ent():
    return q.maximally_entangled(2)


@pytest.fixture(scope="session")
def env_densities():
    """Densities that hold an environment register E: a purified private
    state, and a purified private pair composed with the example."""
    rng = np.random.default_rng(1706)
    purified = q.purify(q.random_private_state(2, (2, 2), rng)).to_density()
    pair = q.purify(q.random_private_state(2, (1, 2), rng))
    composite, _ = q.compose(pair, q.build_example_state(), check=False)
    return [purified, composite.to_density()]


@pytest.fixture()
def biased_state():
    # sqrt(1/3)|0,0> + sqrt(2/3)|1,1> on dealer + one player, d=2
    layout = q.standard_layout(2, 1)
    v = np.zeros(4, dtype=complex)
    v[0] = np.sqrt(1 / 3)
    v[3] = np.sqrt(2 / 3)
    return q.QuantumState(layout, vector=v)


@pytest.fixture()
def classical_state():
    # (1/2)(|00><00| + |11><11|), perfectly correlated but only classically
    layout = q.standard_layout(2, 1)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.5
    m[3, 3] = 0.5
    return q.QuantumState(layout, matrix=m)
