import pytest

from etacheck.basis import load_basis_n20
from etacheck.ujump import UImageTable, build_A
from etacheck.verifier import andrews_sellers, rogers_ramanujan


@pytest.fixture(scope="session")
def basis20():
    return load_basis_n20()


@pytest.fixture(scope="session")
def image_cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("image-cache")


@pytest.fixture(scope="session")
def rr_spec():
    return rogers_ramanujan(B=5)


@pytest.fixture(scope="session")
def as_spec():
    return andrews_sellers(B=5)


@pytest.fixture(scope="session")
def rr_image_table(basis20, rr_spec, image_cache_dir):
    return UImageTable(basis20, build_A(rr_spec.gen), 5, cache_dir=image_cache_dir)


@pytest.fixture(scope="session")
def as_image_table(basis20, as_spec, image_cache_dir):
    return UImageTable(basis20, build_A(as_spec.gen), 5, cache_dir=image_cache_dir)

