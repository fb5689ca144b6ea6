"""Session-scoped algebra fixtures shared across test modules.

Instances are built once (axiom verification included) and treated as
read-only by every test.
"""

import json
from pathlib import Path

import pytest

from hopfcomm.group import cyclic_group, from_perm_generators, load_group
from hopfcomm.hopf import (
    build_drinfeld_double,
    build_dual_group_algebra,
    build_group_algebra,
)

S3_GENS = [[[1, 2]], [[1, 2, 3]]]
S4_GENS = [[[1, 2]], [[1, 2, 3, 4]]]
D4_GENS = [[[1, 2, 3, 4]], [[1, 3]]]
A4_GENS = [[[1, 2, 3]], [[1, 2], [3, 4]]]


@pytest.fixture(scope="session")
def s3():
    return from_perm_generators("S3", S3_GENS)


@pytest.fixture(scope="session")
def s4():
    return from_perm_generators("S4", S4_GENS)


@pytest.fixture(scope="session")
def d4():
    return from_perm_generators("D4", D4_GENS)


@pytest.fixture(scope="session")
def a4():
    return from_perm_generators("A4", A4_GENS)


@pytest.fixture(scope="session")
def q8():
    spec = Path(__file__).resolve().parent / "golden" / "specs" / "Q8.json"
    return load_group(json.loads(spec.read_text(encoding="utf-8")))


@pytest.fixture(scope="session")
def ks3(s3):
    return build_group_algebra(s3)


@pytest.fixture(scope="session")
def kq8(q8):
    return build_group_algebra(q8)


@pytest.fixture(scope="session")
def ks4(s4):
    return build_group_algebra(s4)


@pytest.fixture(scope="session")
def kd4(d4):
    return build_group_algebra(d4)


@pytest.fixture(scope="session")
def dual_s3(s3):
    return build_dual_group_algebra(s3)


@pytest.fixture(scope="session")
def dc2():
    return build_drinfeld_double(cyclic_group(2))


@pytest.fixture(scope="session")
def ds3(s3):
    return build_drinfeld_double(s3)


@pytest.fixture(scope="session")
def dq8(q8):
    return build_drinfeld_double(q8)
