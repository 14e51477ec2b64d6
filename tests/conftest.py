import functools
import math
import os
import shutil
import tempfile

import pytest

from lpairs import character, compute_zeros

try:
    from hypothesis import settings
except ImportError:  # the property tests skip through pytest.importorskip
    pass
else:
    # derandomized and without an example database, so property tests
    # draw the same examples on every run
    settings.register_profile("lpairs", derandomize=True, database=None,
                              deadline=None, max_examples=60)
    settings.load_profile("lpairs")


def pytest_configure(config):
    """Hypothesis caches the constants it reads from local source even
    without a database; keep that cache in a temporary directory removed
    at exit, not in a .hypothesis/ in the working tree."""
    if os.environ.get("HYPOTHESIS_STORAGE_DIRECTORY"):
        return
    home = tempfile.mkdtemp(prefix="hypothesis-")
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = home

    def cleanup():
        os.environ.pop("HYPOTHESIS_STORAGE_DIRECTORY", None)
        shutil.rmtree(home, ignore_errors=True)

    config.add_cleanup(cleanup)


# Dual-window allowance A of the critical-line O(T) check, in units of
# T/2pi: one unit, the size of |C_chi|.  The paper does not give the
# constant the second AFE window adds (measured: about -0.5i for 3:1 and
# about 0.1 for 5:2 at p = 7).
DUAL_WINDOW_ALLOWANCE = 1.0


@pytest.fixture(scope="session")
def src_env():
    """Environment for a child interpreter: it imports lpairs from this
    checkout's src/, as pytest's pythonpath does, installed or not."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.fixture(scope="session")
def chi3():
    return character(3, 1)


@pytest.fixture(scope="session")
def chi5():
    """The quadratic (Legendre-symbol) character mod 5."""
    return character(5, 2)


@pytest.fixture(scope="session")
def zeros100():
    return compute_zeros(100.0)


@pytest.fixture(scope="session")
def zeros1000():
    return compute_zeros(1000.0)


@pytest.fixture(scope="session")
def zeros5000():
    return compute_zeros(5000.0)


@pytest.fixture(scope="session")
def log_derivative_at_one():
    """(L'/L)(1, chi) as a double, by mpmath at 20 digits, through the
    Stieltjes form of the Hurwitz expansion at s = 1:

        L(1, chi) = -(1/q) sum_a chi(a) psi(a/q),
        L'(1, chi) = -(log q) L(1, chi) - (1/q) sum_a chi(a) gamma_1(a/q).

    It gives the doubles of mpmath.dirichlet in a fraction of its time,
    which grows to about a minute for a complex character mod 5.  The
    double is the same at 20 and 40 digits; 15 digits miss the last bits.
    """
    mp = pytest.importorskip("mpmath")

    @functools.cache
    def log_derivative(chi):
        q = chi.modulus
        with mp.workdps(20):
            value = -mp.fsum(chi(a) * mp.digamma(mp.mpf(a) / q) for a in range(1, q)) / q
            derivative = -mp.log(q) * value - mp.fsum(
                chi(a) * mp.stieltjes(1, mp.mpf(a) / q) for a in range(1, q)) / q
            return complex(derivative / value)

    return log_derivative


@pytest.fixture(scope="session")
def first_moment_check(log_derivative_at_one):
    """O(T) check of the per-character first moments of a thm2 report.

    sum p^rho L(rho, chi) = conj(C_chi) (T/2pi) log(T/2pi) + O(T), so the
    normalised remainder r_chi = (sum_chi - main_chi) / (T/2pi) stays
    bounded.  The bound is |c_chi| + A, with c_chi the closed-form
    first-window constant -log p - chi(p) + chi(p) (L'/L)(1, chi) from
    the Gonek-Landau formula, evaluated by mpmath (never fitted to sums).

    check(rep, cfg, mains=None) returns (ok, [(r_chi1, bound_chi1),
    (r_chi2, bound_chi2)]); `mains` replaces (main_chi1, main_chi2).
    """

    @functools.cache
    def bound(chi, p):
        c_diag = -math.log(p) - chi(p) + chi(p) * log_derivative_at_one(chi)
        return abs(c_diag) + DUAL_WINDOW_ALLOWANCE

    def check(rep, cfg, mains=None):
        m1, m2 = mains if mains is not None else (rep.main_chi1, rep.main_chi2)
        unit = rep.t / (2.0 * math.pi)
        rows = [((rep.sum_chi1 - m1) / unit, bound(cfg.chi1, cfg.p)),
                ((rep.sum_chi2 - m2) / unit, bound(cfg.chi2, cfg.p))]
        return all(abs(r) <= b for r, b in rows), rows

    return check
