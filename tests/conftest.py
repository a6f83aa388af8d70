import pytest

from clotkit.monoid import (
    cyclic_group,
    direct_product,
    enumerate_submonoids,
    full_transformation_monoid,
    restrict_to_submonoid,
)


@pytest.fixture(scope="session")
def t2():
    return full_transformation_monoid(2)


@pytest.fixture(scope="session")
def t3():
    return full_transformation_monoid(3)


@pytest.fixture(scope="session")
def t3_submonoids(t3):
    """All 699 submonoids of T3, in enumeration order."""
    return [mask.bits for mask in enumerate_submonoids(t3[0]).masks]


@pytest.fixture(scope="session")
def s3(t3):
    monoid, named = t3
    return restrict_to_submonoid(monoid, named["bijections"], "S3")


@pytest.fixture(scope="session")
def z4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def klein():
    z2 = cyclic_group(2)
    return direct_product(z2, z2)


@pytest.fixture(scope="session")
def corpus():
    from clotkit.search import default_corpus
    return default_corpus()
