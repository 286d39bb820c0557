"""Per-layer spans around the public functions of the fracdamp modules.

The tracer is installed from outside the package: it replaces every public
module-level function of each fracdamp module with a wrapper that records
call counts and self time (span time minus the time of wrapped calls made
inside it).  The modules bind names with from-imports, so one function can be
reachable through several module attributes (``convolve_pieces`` lives in
both ``fracdamp._expconv`` and ``fracdamp.duhamel``); every such attribute is
patched, and ``uninstall`` puts the originals back.

A few layers also get counters read from their arguments or results, because
the program itself records none yet:

* ``expconv.exp_poly_moments.series_calls``: calls with |w| <= 8, the range
  the Taylor-series branch serves;
* ``expconv.convolve_pieces.pieces_visited`` / ``pieces_hit``: pieces the
  loop walks over versus pieces that overlap the integration window;
* ``counterexamples.window_shift_force.skips`` / ``retries``: calls that end
  in a PreconditionError or ConstructionError (assemblies skip those modes),
  and mollifier halvings beyond the first attempt;
* ``harness.write_csv.bytes``: bytes written to CSV artifacts.

Layer names drop the leading underscore of ``_expconv`` so that every metric
name starts with a letter.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import sys
import time
import types

MODULES = (
    "charpoly",
    "spectrum",
    "forcing",
    "_expconv",
    "propagator",
    "duhamel",
    "probe",
    "counterexamples",
    "oracle",
    "acceptance",
    "config",
    "harness",
    "recipes",
    "cli",
)

_SERIES_RADIUS = 8.0  # fracdamp._expconv switches from series to recurrence above this |w|


def layer_name(module: str, func: str) -> str:
    return f"{module.lstrip('_')}.{func}"


class Tracer:
    """Call counts, self times and counters of the wrapped fracdamp functions."""

    def __init__(self):
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        self.counters = collections.Counter()
        self._stats = {}  # layer name -> [calls, self seconds], folded in by flush()
        self._stack = []
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from fracdamp import errors

        skip_errors = (errors.PreconditionError, errors.ConstructionError)
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"fracdamp.{short}")
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, layer_name(short, attr), skip_errors))
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "fracdamp" or name.startswith("fracdamp.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._undo):
            setattr(mod, attr, val)
        self._undo.clear()
        self.flush()

    def flush(self) -> None:
        for name, st in self._stats.items():
            self.calls[name] += st[0]
            self.self_s[name] += st[1]
            st[0] = 0
            st[1] = 0.0

    def _wrap(self, fn, name, skip_errors):
        stack = self._stack
        push, pop = stack.append, stack.pop
        st = self._stats.setdefault(name, [0, 0.0])
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        if name != "counterexamples.window_shift_force":
            skip_errors = ()

        if hook is None:
            # frame: [seconds spent in wrapped children]
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [0.0]
                push(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    pop()
                    st[0] += 1
                    st[1] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt

            return wrapper

        counters = self.counters

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            # frame: [seconds in wrapped children, hook-specific count]
            frame = [0.0, 0]
            push(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except skip_errors:
                counters[name + ".skips"] += 1
                raise
            finally:
                dt = clock() - t0
                pop()
                st[0] += 1
                st[1] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                hook(counters, stack, frame, args, kwargs, result)

        return hooked

    # -- results ------------------------------------------------------------

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def snapshot(self) -> dict:
        self.flush()
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }

    def merge(self, snap: dict) -> None:
        self.calls.update(snap["calls"])
        for k, v in snap["self_s"].items():
            self.self_s[k] += v
        self.counters.update(snap["counters"])


def _moments_hook(counters, stack, frame, args, kwargs, result):
    w = args[0] if args else kwargs["w"]
    if abs(w) <= _SERIES_RADIUS:
        counters["expconv.exp_poly_moments.series_calls"] += 1


def _convolve_hook(counters, stack, frame, args, kwargs, result):
    pieces = args[1] if len(args) > 1 else kwargs["pieces"]
    T = args[2] if len(args) > 2 else kwargs["T"]
    t0 = args[3] if len(args) > 3 else kwargs.get("t0", 0.0)
    hit = 0
    for pc in pieces:
        if min(pc.stop, T) > max(pc.start, t0):
            hit += 1
    counters["expconv.convolve_pieces.pieces_visited"] += len(pieces)
    counters["expconv.convolve_pieces.pieces_hit"] += hit


def _forced_mode_hook(counters, stack, frame, args, kwargs, result):
    # the enclosing hooked frame counts its direct forced_mode_at children;
    # only window_shift_force reads the count: it evaluates the pulse once
    # per mollifier width it tries
    if stack and len(stack[-1]) == 2:
        stack[-1][1] += 1


def _window_shift_hook(counters, stack, frame, args, kwargs, result):
    if frame[1] > 1:
        counters["counterexamples.window_shift_force.retries"] += frame[1] - 1


def _write_csv_hook(counters, stack, frame, args, kwargs, result):
    if result is not None:
        counters["harness.write_csv.bytes"] += os.path.getsize(result)


_HOOKS = {
    "expconv.exp_poly_moments": _moments_hook,
    "expconv.convolve_pieces": _convolve_hook,
    "duhamel.forced_mode_at": _forced_mode_hook,
    "counterexamples.window_shift_force": _window_shift_hook,
    "harness.write_csv": _write_csv_hook,
}
