import faulthandler
import signal
import sys

import pytest

from etacheck.basis import load_basis_n20
from etacheck.ujump import UImageTable, build_A
from etacheck.verifier import andrews_sellers, rogers_ramanujan


# about ten times the slowest tier-1 test (7.6 s on a 2-core host): a test
# still running then is stuck, and fails instead of hanging the suite
DEADLINE_S = 75


def _expire(signum, frame):
    faulthandler.dump_traceback(file=sys.stderr, all_threads=False)
    pytest.fail(f"test ran past its {DEADLINE_S} s deadline", pytrace=False)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Fail the test that runs past DEADLINE_S, with a dump of where it is.
    The deadline covers the test's set-up too, so a fixture of any scope
    that never returns fails the first test that sets it up.  SIGALRM's
    handler runs between bytecodes, so a loop that never ends is stopped;
    pytest.fail raises a BaseException, which no handler of the package
    catches.  A forked worker inherits no timer."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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

