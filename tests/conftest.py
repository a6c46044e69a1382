import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rwalk import FiniteGroup, Lattice, Law, cyclic_group, find_exponential, tilt
from rwalk.spectral import _lambda_pass

FIXTURES = Path(__file__).parent / "fixtures"

# masses from 1e-157 to 0.6: the Hessian is singular to double precision on the way
SINGULAR_3D = {(2, 0, 0): 7.268367713244139e-31, (-1000, 0, 0): 2.1663773376269468e-70,
               (0, 5, 0): 3.736402918781626e-157, (0, -2, 0): 7.508300638653556e-94,
               (0, 0, 50): 0.13201373698494576, (0, 0, -1): 0.5984692076479221,
               (-213, -3, -3): 0.2695170553671321}

# S3 as permutations of {0,1,2}: elements indexed in the order
# id, (01), (02), (12), (012), (021); table built from composition.
_S3_PERMS = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]


def _compose(p, q):
    return tuple(p[q[i]] for i in range(3))


def s3_cayley():
    idx = {p: i for i, p in enumerate(_S3_PERMS)}
    return [[idx[_compose(p, q)] for q in _S3_PERMS] for p in _S3_PERMS]


def mgf(law, theta):
    """Lambda(theta) = sum_x mass(x) exp(theta.x), from the solver's one pass."""
    return _lambda_pass(law, np.asarray(theta, dtype=float))[0]


def tilt_from_spectral(law):
    """Minimize, then tilt at the computed (phi, R)."""
    exponential, spectral = find_exponential(law)
    return tilt(law, exponential, spectral.R)


@pytest.fixture(scope="session")
def z1():
    return Lattice(1)


@pytest.fixture(scope="session")
def z2():
    return Lattice(2)


@pytest.fixture(scope="session")
def z3():
    return Lattice(3)


@pytest.fixture(scope="session")
def bernoulli(z1):
    """Up-step probability 0.25; the running asymmetric example."""
    return Law(z1, {(1,): 0.25, (-1,): 0.75})


@pytest.fixture(scope="session")
def lazy_drift(z1):
    return Law(z1, {(0,): 0.5, (1,): 0.3, (-1,): 0.2})


@pytest.fixture(scope="session")
def drift2d(z2):
    return Law(z2, {(1, 0): 0.4, (-1, 0): 0.2, (0, 1): 0.25, (0, -1): 0.15})


@pytest.fixture(scope="session")
def simple_symmetric(z1):
    return Law(z1, {(1,): 0.5, (-1,): 0.5})


@pytest.fixture(scope="session")
def wide_symmetric(z1):
    return Law(z1, {(2,): 0.25, (1,): 0.25, (-1,): 0.25, (-2,): 0.25})


@pytest.fixture(scope="session")
def symmetric2d(z2):
    return Law(z2, {(1, 0): 0.25, (-1, 0): 0.25, (0, 1): 0.25, (0, -1): 0.25})


@pytest.fixture(scope="session")
def symmetric3d(z3):
    sixth = 1.0 / 6.0
    return Law(z3, {(1, 0, 0): sixth, (-1, 0, 0): sixth, (0, 1, 0): sixth,
                    (0, -1, 0): sixth, (0, 0, 1): sixth, (0, 0, -1): sixth})


@pytest.fixture(scope="session")
def z3_group():
    return cyclic_group(3)


@pytest.fixture(scope="session")
def z6_group():
    return cyclic_group(6)


@pytest.fixture(scope="session")
def s3_group():
    return FiniteGroup(s3_cayley())


@pytest.fixture(scope="session")
def z6_law(z6_group):
    return Law(z6_group, {1: 0.5, 5: 0.5})


@pytest.fixture(scope="session")
def s3_law(s3_group):
    # uniform on the two transpositions (01), (02): generates all of S3
    return Law(s3_group, {1: 0.5, 2: 0.5})


@pytest.fixture(scope="session")
def asymmetric_corpus(bernoulli, lazy_drift, drift2d):
    return [bernoulli, lazy_drift, drift2d]


@pytest.fixture(scope="session")
def symmetric_corpus(simple_symmetric, wide_symmetric, symmetric2d, z6_law):
    return [simple_symmetric, wide_symmetric, symmetric2d, z6_law]
