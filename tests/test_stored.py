"""Statistics stored on a density: computed once, then returned as stored.

``summary``, ``mean``, ``variance``, ``median_set``, ``raw_moment`` (one
stored tuple of all its orders) and each convention's ``mode_set`` of at
most ``modes._STORED_LOCI`` loci keep their result on the density.  A repeat
call must return the very same object, bit-equal to what a fresh, equal
density computes; errors must stay errors on every call and leave nothing
behind; queries with continuous arguments, larger mode sets and ``f_sup``
must store nothing; and a queried density must still pickle, copy, and serve
many threads at once.
"""

import copy
import math
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import pwldist as pw
from pwldist.modes import _STORED_LOCI

ORDERS = range(pw.MAX_MOMENT_ORDER + 1)


def _density():
    """Five pieces with a zero run, a jump and point values, mass 1."""
    c = [-3.0, -1.0, 0.0, 0.5, 2.0, 4.0]
    rr = np.array([0.1, 0.0, 0.4, 0.3, 0.05])
    ll = np.array([0.2, 0.0, 0.1, 0.3, 0.0])
    pv = np.array([0.0, 0.3, 0.0, 0.4, 0.3, 0.0])
    k = 2.0 / float(np.sum((rr + ll) * np.diff(c)))
    return pw.validate(c, rr * k, ll * k, pv * k)


def _fresh(d):
    return pw.validate(d.breakpoints, d.right_limits, d.left_limits, d.point_values)


STATISTICS = {
    "summary": pw.summary,
    "mean": pw.mean,
    "variance": pw.variance,
    "median_set": pw.median_set,
    **{f"raw_moment({m})": (lambda d, m=m: pw.raw_moment(d, m)) for m in ORDERS},
    **{f"mode_set({c})": (lambda d, c=c: pw.mode_set(d, c)) for c in pw.CONVENTIONS},
}


@pytest.mark.parametrize("name", STATISTICS)
def test_repeat_call_returns_the_stored_object(name):
    f = STATISTICS[name]
    d = _density()
    first = f(d)
    assert f(d) is first
    assert repr(f(_fresh(d))) == repr(first)


def test_numpy_and_python_orders_share_an_entry():
    d = _density()
    x = pw.raw_moment(d, np.int64(3))
    assert pw.raw_moment(d, 3) is x
    assert len(d._results) == 1


def test_not_normalized_raises_the_same_and_stores_nothing():
    d = pw.validate([0, 1], [3.0], [3.0])
    for f in (pw.summary, pw.mean, pw.variance, pw.median_set):
        messages = set()
        for _ in range(3):
            with pytest.raises(pw.NotNormalizedError) as info:
                f(d)
            messages.add(str(info.value))
        assert len(messages) == 1
    assert d._results == {}


@pytest.mark.parametrize(
    "order, error",
    [
        (-1, ValueError), (13, pw.OrderTooLargeError), (2.0, ValueError), ([1], ValueError),
        (True, ValueError), (np.True_, ValueError),
    ],
)
def test_bad_order_raises_the_same_and_stores_nothing(order, error):
    d = _density()
    messages = set()
    for _ in range(3):
        with pytest.raises(error) as info:
            pw.raw_moment(d, order)
        messages.add(str(info.value))
    assert len(messages) == 1
    assert d._results == {}


def test_stored_entries_are_bounded():
    d = _density()
    for f in STATISTICS.values():
        f(d)
    assert len(d._results) <= 7
    stored = dict(d._results)
    for x in np.linspace(-4.0, 5.0, 1000):
        p = (x + 4.0) / 9.0
        pw.quantile(d, p)
        pw.cdf(d, x)
        pw.pdf(d, x)
    assert d._results == stored


def test_numpy_and_python_conventions_share_an_entry():
    d = _density()
    ms = pw.mode_set(d, np.str_("point_and_limits"))
    assert pw.mode_set(d, "point_and_limits") is ms
    assert repr(ms) == repr(pw.mode_set(_fresh(d), "point_and_limits"))
    assert len(d._results) == 1


def test_large_mode_sets_and_f_sup_store_nothing():
    d = pw.validate(np.arange(1001.0), np.full(1000, 1e-3), np.full(1000, 1e-3))
    for convention in pw.CONVENTIONS:
        ms = pw.mode_set(d, convention)
        assert len(ms.loci) > _STORED_LOCI
        again = pw.mode_set(d, convention)
        assert again is not ms and repr(again) == repr(ms)
        pw.f_sup(d, convention)
    assert d._results == {}


@pytest.mark.parametrize("convention", ["limits", "", None, ["limits_only"]])
def test_bad_convention_raises_the_same_and_stores_nothing(convention):
    d = _density()
    messages = set()
    for _ in range(3):
        with pytest.raises(ValueError) as info:
            pw.mode_set(d, convention)
        messages.add(str(info.value))
    assert len(messages) == 1
    assert d._results == {}


@pytest.mark.parametrize("clone", [lambda d: pickle.loads(pickle.dumps(d)), copy.copy])
def test_queried_density_round_trips(clone):
    d = _density()
    before = {name: repr(f(d)) for name, f in STATISTICS.items()}
    twin = clone(d)
    assert {name: repr(f(twin)) for name, f in STATISTICS.items()} == before
    assert repr(pw.quantile(twin, 0.3, "mid")) == repr(pw.quantile(d, 0.3, "mid"))


def test_threads_share_one_fresh_density():
    d = _density()
    expected = (repr(pw.summary(_fresh(d))),
                [repr(pw.raw_moment(_fresh(d), m)) for m in ORDERS],
                [repr(pw.mode_set(_fresh(d), c)) for c in pw.CONVENTIONS])

    def query(_):
        return (repr(pw.summary(d)), [repr(pw.raw_moment(d, m)) for m in ORDERS],
                [repr(pw.mode_set(d, c)) for c in pw.CONVENTIONS])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(query, i) for i in range(64)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == expected for r in results)
    assert len(d._results) == 1 + 1 + len(pw.CONVENTIONS)


def test_stored_objects_are_immutable():
    d = _density()
    for stored, field in (
        (pw.summary(d), "mean"), (pw.median_set(d), "v_min"), (pw.mode_set(d), "loci")
    ):
        with pytest.raises(AttributeError):
            setattr(stored, field, math.nan)
