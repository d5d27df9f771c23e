import contextlib
import io
import random
import signal

import pytest

from sgb import PolySystem, Polynomial, PrimeField, monomials_of_degree
from sgb.cli import run_command


# Longest any one test may run; the slowest takes about 4 s.  A kernel that
# stops terminating then fails its test instead of hanging the suite.
TEST_TIME_LIMIT_S = 300


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Fail the test when it runs past ``TEST_TIME_LIMIT_S`` (SIGALRM)."""

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran past the {TEST_TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def f7():
    return PrimeField(7)


@pytest.fixture(scope="session")
def f31():
    return PrimeField(31)


def random_polynomial(rng, fld, n, max_deg=3, homogeneous=False, nonzero=True):
    """Small random polynomial; degree-d dense when homogeneous."""
    while True:
        coeffs = {}
        if homogeneous:
            d = rng.randint(1, max_deg)
            for m in monomials_of_degree(n, d):
                c = rng.randrange(fld.p)
                if c:
                    coeffs[m] = c
        else:
            for d in range(max_deg + 1):
                for m in monomials_of_degree(n, d):
                    if rng.random() < 0.4:
                        c = rng.randrange(fld.p)
                        if c:
                            coeffs[m] = c
        f = Polynomial(fld, n, coeffs)
        if not nonzero or not f.is_zero():
            return f


def random_invertible_change(rng, fld, n):
    from sgb import LinearChange
    from sgb.errors import ZeroInverse

    while True:
        rows = [[rng.randrange(fld.p) for _ in range(n)] for _ in range(n)]
        try:
            return LinearChange(fld, rows, "random")
        except ZeroInverse:
            continue


def spec_fixture_system(fld):
    """The worked two-variable fixture {x1^2, x1*x2}."""
    return PolySystem(
        fld,
        2,
        (Polynomial(fld, 2, {(2, 0): 1}), Polynomial(fld, 2, {(1, 1): 1})),
    )


def corner_system(n, m, degrees, fld, seed):
    """Like ``sample_system`` but on the squarefree monomials only: every
    coordinate point is a projective zero, so no variable is an admissible
    linear form and an accepted sigma is a shear."""
    rng = random.Random(seed)
    polys = []
    for d in degrees:
        squarefree = [t for t in monomials_of_degree(n, d) if max(t) == 1]
        f = Polynomial(fld, n, {})
        while f.is_zero():
            f = Polynomial(fld, n, {t: rng.randrange(fld.p) for t in squarefree})
        polys.append(f)
    return PolySystem(fld, n, tuple(polys))
