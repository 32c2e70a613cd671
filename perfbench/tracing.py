"""Span tracing for the benchmark's traced runs.

A Tracer wraps functions so that every call records a span. Per
function it keeps the call count, inclusive time, self time (inclusive
time minus the inclusive time of wrapped calls made from inside it)
and, for calls made while tracemalloc is on, the peak of tracked bytes
the call held above what was live when it started.

Wrappers are installed by rebinding every module attribute that holds
the original function, because modules that did `from .x import f`
keep their own reference: patching only the defining module would
miss those calls. Patches are undone in reverse order by `restore`.
`coverage_problems` finds bindings that escaped or doubled the tracing.
"""

import functools
import time
import tracemalloc
import types


class FunctionStats:
    __slots__ = ("calls", "incl_s", "self_s", "peak_bytes")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.peak_bytes = 0


class _Frame:
    __slots__ = ("name", "start", "child_s", "base", "peak")

    def __init__(self, name, start, base):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.base = base   # None when tracemalloc was off at entry
        self.peak = base


class Tracer:
    """Collects spans from wrapped functions.

    clock is injectable so tests can check the self-time arithmetic
    exactly. A call to a span named in peak_spans turns tracemalloc on
    until it returns, and every span that starts meanwhile records its
    peak; other spans record none, so tracing cost stays inside those
    calls.
    """

    def __init__(self, clock=time.perf_counter, peak_spans=()):
        self.clock = clock
        self.peak_spans = frozenset(peak_spans)
        self.stats = {}
        self._peak_owner = None
        self._stack = []

    def _fold_peak(self, peak):
        for frame in self._stack:
            if frame.base is not None and peak > frame.peak:
                frame.peak = peak

    def _enter(self, name):
        if name in self.peak_spans and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._peak_owner = len(self._stack)
        base = None
        if self._peak_owner is not None:
            base, peak = tracemalloc.get_traced_memory()
            self._fold_peak(peak)
            tracemalloc.reset_peak()
        self._stack.append(_Frame(name, self.clock(), base))

    def _exit(self):
        end = self.clock()
        if self._peak_owner is not None:
            self._fold_peak(tracemalloc.get_traced_memory()[1])
        frame = self._stack.pop()
        if self._peak_owner == len(self._stack):
            tracemalloc.stop()
            self._peak_owner = None
        incl = end - frame.start
        own = incl - frame.child_s
        st = self.stats.get(frame.name)
        if st is None:
            st = self.stats[frame.name] = FunctionStats()
        st.calls += 1
        st.incl_s += incl
        st.self_s += own
        if frame.base is not None:
            st.peak_bytes = max(st.peak_bytes, frame.peak - frame.base)
        if self._stack:
            self._stack[-1].child_s += incl

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        traced.span = name
        return traced


def _is_wrapper(obj):
    return isinstance(obj, types.FunctionType) and hasattr(obj, "span")


def public_functions(module):
    """Functions defined in module whose names do not start with '_'."""
    return [(name, obj) for name, obj in vars(module).items()
            if isinstance(obj, types.FunctionType) and not name.startswith("_")
            and obj.__module__ == module.__name__ and not _is_wrapper(obj)]


class Patches:
    """Rebinds functions in a set of modules and undoes it on restore."""

    def __init__(self, modules):
        self.modules = list(modules)
        self._undo = []

    def replace(self, original, replacement):
        """Point every binding of original in the modules at replacement."""
        for module in self.modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, replacement)

    def restore(self):
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)


def install(tracer, patches, modules, prefix):
    """Wrap the public functions of each module; span names are the
    module name without prefix, a dot, and the function name.

    All targets are listed before any is patched, so a wrapper that
    lands in a later module is not taken for one of its functions."""
    targets = [("%s.%s" % (module.__name__[len(prefix):], name), fn)
               for module in modules for name, fn in public_functions(module)]
    for span, fn in targets:
        patches.replace(fn, tracer.wrap(span, fn))


def coverage_problems(modules):
    """Bindings in modules that escape or double the tracing: a public
    function left unwrapped (its module was imported after install), a
    binding that still holds a function traced elsewhere, and a wrapper
    around a wrapper. Call it while the patches are in place."""
    wrappers = [v for m in modules for v in vars(m).values() if _is_wrapper(v)]
    traced = {id(w.__wrapped__) for w in wrappers}
    problems = []
    for module in modules:
        public = {id(fn) for _, fn in public_functions(module)}
        for name, value in vars(module).items():
            where = "%s.%s" % (module.__name__, name)
            if _is_wrapper(value):
                if _is_wrapper(value.__wrapped__):
                    problems.append("%s is wrapped twice" % where)
            elif id(value) in traced or id(value) in public:
                problems.append("%s is not traced" % where)
    return problems
