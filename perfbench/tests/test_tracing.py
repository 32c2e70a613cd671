"""Tests of the benchmark's span tracer.

    python3 -m pytest perfbench/tests
"""

import os
import sys
import tracemalloc
import types

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _synthetic_modules(clock):
    """outer (1 s own) calls inner twice (2 s and 3 s own) and leaf once
    from inside the second inner call (4 s); a second module imports
    inner by name, as firl modules do."""
    lib = types.ModuleType("pkg.lib")
    user = types.ModuleType("pkg.user")

    def leaf():
        clock.now += 4.0

    def inner(k):
        clock.now += k
        if k == 3.0:
            lib.leaf()

    def outer():
        clock.now += 1.0
        user.inner(2.0)
        user.inner(3.0)

    def _private():
        pass

    for fn in (leaf, inner, outer, _private):
        fn.__module__ = lib.__name__
        setattr(lib, fn.__name__, fn)
    user.inner = inner
    return lib, user


def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    lib, user = _synthetic_modules(clock)
    tracer = tracing.Tracer(clock=clock)
    patches = tracing.Patches([lib, user])
    tracing.install(tracer, patches, [lib, user], "pkg.")
    lib.outer()
    assert sorted(tracer.stats) == ["lib.inner", "lib.leaf", "lib.outer"]
    outer, inner, leaf = (tracer.stats["lib." + n] for n in ("outer", "inner", "leaf"))
    assert (outer.calls, inner.calls, leaf.calls) == (1, 2, 1)
    assert outer.incl_s == 10.0 and outer.self_s == 1.0
    assert inner.incl_s == 9.0 and inner.self_s == 5.0
    assert leaf.incl_s == 4.0 and leaf.self_s == 4.0
    assert sum(st.self_s for st in tracer.stats.values()) == outer.incl_s


def test_restore_puts_every_binding_back():
    clock = FakeClock()
    lib, user = _synthetic_modules(clock)
    originals = (dict(vars(lib)), dict(vars(user)))
    patches = tracing.Patches([lib, user])
    tracing.install(tracing.Tracer(clock=clock), patches, [lib, user], "pkg.")
    assert user.inner is lib.inner is not originals[0]["inner"]
    assert lib.inner.__wrapped__ is originals[0]["inner"]
    assert lib._private is originals[0]["_private"]
    patches.restore()
    assert dict(vars(lib)) == originals[0]
    assert dict(vars(user)) == originals[1]


def test_coverage_finds_missed_and_doubled_bindings():
    clock = FakeClock()
    lib, user = _synthetic_modules(clock)
    tracer = tracing.Tracer(clock=clock)
    patches = tracing.Patches([lib, user])
    tracing.install(tracer, patches, [lib, user], "pkg.")
    assert tracing.coverage_problems([lib, user]) == []

    late = types.ModuleType("pkg.late")  # imported after install
    late.leaf = lib.leaf.__wrapped__     # bound to the original
    late.helper = lambda: None
    late.helper.__module__ = late.__name__
    user.outer = tracer.wrap("lib.outer", lib.outer)
    assert sorted(tracing.coverage_problems([lib, user, late])) == [
        "pkg.late.helper is not traced",
        "pkg.late.leaf is not traced",
        "pkg.user.outer is wrapped twice",
    ]


def _hold():
    return len(bytearray(4_000_000))


def test_peak_counts_bytes_held_inside_peak_spans_only():
    tracer = tracing.Tracer(peak_spans=("hold",))
    hold = tracer.wrap("hold", _hold)
    tracer.wrap("caller", lambda: hold() + len(bytearray(1_000_000)))()
    assert 4_000_000 <= tracer.stats["hold"].peak_bytes < 4_100_000
    assert tracer.stats["caller"].peak_bytes == 0
    assert not tracemalloc.is_tracing()
