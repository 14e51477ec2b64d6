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
def first_moment_check():
    """O(T) check of the per-character first moments of a thm2 report.

    sum p^rho L(rho, chi) = conj(C_chi) (T/2pi) log(T/2pi) + O(T), so the
    normalised remainder r_chi = (sum_chi - main_chi) / (T/2pi) stays
    bounded.  The bound is |c_chi| + A, with c_chi the closed-form
    first-window constant -log p - chi(p) + chi(p) (L'/L)(1, chi) from
    the Gonek-Landau formula, evaluated by mpmath (never fitted to sums).

    check(rep, cfg, mains=None) returns (ok, [(r_chi1, bound_chi1),
    (r_chi2, bound_chi2)]); `mains` replaces (main_chi1, main_chi2).

    Each bound is computed once per (chi, p), at 20 digits: the double
    (L'/L)(1, chi) is the same at 15, 20 and 40 digits, and 20 digits
    cost a sixth of 40.
    """
    mp = pytest.importorskip("mpmath")

    @functools.cache
    def bound(chi, p):
        values = [chi(n) for n in range(chi.modulus)]
        with mp.workdps(20):
            log_deriv = complex(mp.dirichlet(1, values, 1) / mp.dirichlet(1, values))
        c_diag = -math.log(p) - chi(p) + chi(p) * log_deriv
        return abs(c_diag) + DUAL_WINDOW_ALLOWANCE

    def check(rep, cfg, mains=None):
        m1, m2 = mains if mains is not None else (rep.main_chi1, rep.main_chi2)
        unit = rep.t / (2.0 * math.pi)
        rows = [((rep.sum_chi1 - m1) / unit, bound(cfg.chi1, cfg.p)),
                ((rep.sum_chi2 - m2) / unit, bound(cfg.chi2, cfg.p))]
        return all(abs(r) <= b for r, b in rows), rows

    return check
