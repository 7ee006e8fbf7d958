"""Span tracer for ramsum, installed from outside the package.

The tracer replaces every module-level binding of each public function of
the six layers (``arith``, ``exactnum``, ``logspace``, ``csum``,
``identities``, ``cli``) with a timing wrapper.  A function imported into
several modules is wrapped at each binding, so ``ramsum.identities.csum_table``
and ``ramsum.csum.csum_table`` record into the same span name, and the
``check_*`` globals that the identity dispatch table looks up at call time
are timed per identity.  ``PrimeSieve.__init__`` is wrapped as the sieve
build.

Spans (name, parent span, start, end) are appended to flat arrays in memory
and aggregated once the traced work has finished.  Worker processes forked
by the suite runner's process pool inherit the wrappers; each clears its
copy of the buffers when it starts and spills its spans to a file when it
exits, and :meth:`Tracer.collect` merges those files.  This relies on the
pool using the ``fork`` start method, the default on Linux before Python
3.14; selftest.py fails if worker spans go missing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pickle
import sys
import time
import types
from array import array
from multiprocessing import util as mp_util

import numpy as np

LAYERS = ("arith", "exactnum", "logspace", "csum", "identities", "cli")

# functions whose (k, s) arguments are captured, for key-reuse ratios and
# the direct route's term count; csum_direct also keeps j and its result
KEYED = ("csum.moebius", "csum.hoelder", "csum.direct", "csum.table")


def _check_ids(identities) -> dict:
    """Map each check_* function name to the identity id that dispatches to it."""
    out = {}
    for ident, entry in getattr(identities, "_DISPATCH", {}).items():
        for name in getattr(getattr(entry, "__code__", None), "co_names", ()):
            if name.startswith("check_"):
                out[name] = ident
    return out


def span_name(layer: str, attr: str, check_ids: dict) -> str:
    if layer == "identities" and attr in check_ids:
        return f"identities.{check_ids[attr]}"
    if layer == "csum" and attr.startswith("csum_"):
        attr = attr[len("csum_") :]
    return f"{layer}.{attr}"


def public_functions() -> dict:
    """Every public function defined in a layer module, mapped to its span name."""
    importlib.import_module("ramsum.cli")
    check_ids = _check_ids(sys.modules["ramsum.identities"])
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"ramsum.{layer}"]
        for attr, val in vars(mod).items():
            if attr.startswith("_") or not isinstance(val, types.FunctionType):
                continue
            if val.__module__ == mod.__name__:
                out[val] = span_name(layer, attr, check_ids)
    return out


def bindings() -> list:
    """(owner, attribute, function, span name) for every binding site to wrap."""
    targets = public_functions()
    sites = []
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == "ramsum" or modname.startswith("ramsum.")):
            continue
        for attr, val in vars(mod).items():
            if isinstance(val, types.FunctionType) and val in targets:
                sites.append((mod, attr, val, targets[val]))
    sieve_cls = sys.modules["ramsum.arith"].PrimeSieve
    sites.append((sieve_cls, "__init__", sieve_cls.__dict__["__init__"], "arith.sieve_build"))
    return sites


def _key_reader(fn):
    """Fast (k, s) extraction from a call to fn, honouring fn's defaults."""
    params = list(inspect.signature(fn).parameters.values())
    names = [p.name for p in params]
    ki, si = names.index("k"), names.index("s")
    s_default = params[si].default
    ji = names.index("j") if "j" in names else None

    def read(args, kwargs):
        k = args[ki] if len(args) > ki else kwargs["k"]
        s = args[si] if len(args) > si else kwargs.get("s", s_default)
        if ji is None:
            return k, s
        return k, s, args[ji] if len(args) > ji else kwargs["j"]

    return read


class Tracer:
    """Wraps the layer bindings and records one span per wrapped call."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._nid = array("i")
        self._parent = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack: list[int] = []
        self.captures: dict[str, list] = {name: [] for name in KEYED}
        self._installed: list = []
        self._sites: list = []
        self._wrappers: set = set()
        self._fork_hooked = False

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        ids, parents, t0s, t1s, stack = self._nid, self._parent, self._t0, self._t1, self._stack
        clock = time.perf_counter

        if name not in KEYED:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = len(t0s)
                ids.append(nid)
                parents.append(stack[-1] if stack else -1)
                t1s.append(0.0)
                stack.append(i)
                t0s.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1s[i] = clock()
                    stack.pop()

            return traced

        read = _key_reader(fn)
        sink = self.captures[name]
        keep_result = name == "csum.direct"

        @functools.wraps(fn)
        def traced_keyed(*args, **kwargs):
            i = len(t0s)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            t1s.append(0.0)
            stack.append(i)
            t0s.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[i] = clock()
                stack.pop()
            key = read(args, kwargs)
            sink.append(key + (out,) if keep_result else key[:2])
            return out

        return traced_keyed

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every binding site; may be called again after uninstall, and
        the spans of every installed period accumulate."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, original, name in bindings():
            if original not in wrappers:
                wrappers[original] = self._wrap(original, name)
            setattr(owner, attr, wrappers[original])
            self._installed.append((owner, attr, original))
        self._sites = list(self._installed)
        self._wrappers.update(map(id, wrappers.values()))
        if not self._fork_hooked:
            mp_util.register_after_fork(self, Tracer._after_fork)
            self._fork_hooked = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def restored(self) -> bool:
        """True when every wrapped site holds its original function again and
        no ramsum module or class attribute still refers to a wrapper."""
        if any(getattr(owner, attr) is not original for owner, attr, original in self._sites):
            return False
        owners = {id(owner): owner for owner, _, _ in self._sites}
        owners.update((id(m), m) for n, m in sys.modules.items() if m is not None and n.split(".")[0] == "ramsum")
        return not any(id(v) in self._wrappers for owner in owners.values() for v in vars(owner).values())

    def _after_fork(self) -> None:
        # runs in a multiprocessing child: drop the parent's spans, keep the
        # wrappers, and spill this process's spans when it exits
        if not self._installed:
            return
        del self._nid[:], self._parent[:], self._t0[:], self._t1[:]
        self._stack.clear()
        for sink in self.captures.values():
            sink.clear()
        mp_util.Finalize(None, self._spill, exitpriority=10)

    def _state(self) -> dict:
        return {
            "nid": self._nid.tobytes(),
            "parent": self._parent.tobytes(),
            "t0": self._t0.tobytes(),
            "t1": self._t1.tobytes(),
            "captures": self.captures,
        }

    def _spill(self) -> None:
        path = os.path.join(self.spill_dir, f"spans-{os.getpid()}.pkl")
        with open(path, "wb") as fh:
            pickle.dump(self._state(), fh)

    def collect(self) -> "SpanSet":
        """Spans of this process plus those spilled by its exited workers."""
        parts = [self._state()]
        for entry in sorted(os.listdir(self.spill_dir)):
            if entry.startswith("spans-") and entry.endswith(".pkl"):
                path = os.path.join(self.spill_dir, entry)
                with open(path, "rb") as fh:
                    parts.append(pickle.load(fh))
                os.remove(path)
        return SpanSet(list(self.names), parts)


class SpanSet:
    """Merged spans of one traced run; every process's spans keep their own parents."""

    def __init__(self, names: list, parts: list):
        self.names = names
        nid, parent, t0, t1 = [np.zeros(0, np.int32)], [np.zeros(0, np.int64)], [np.zeros(0)], [np.zeros(0)]
        offset = 0
        for part in parts:
            p = np.frombuffer(part["parent"], dtype=np.int32).astype(np.int64)
            parent.append(np.where(p >= 0, p + offset, -1))
            nid.append(np.frombuffer(part["nid"], dtype=np.int32))
            t0.append(np.frombuffer(part["t0"], dtype=np.float64))
            t1.append(np.frombuffer(part["t1"], dtype=np.float64))
            offset += len(p)
        self.process_captures = [part["captures"] for part in parts]
        self.nid = np.concatenate(nid)
        self.parent = np.concatenate(parent)
        self.t0 = np.concatenate(t0)
        self.t1 = np.concatenate(t1)
        self.dur = self.t1 - self.t0
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur))
        self.self_time = self.dur - child
        width = len(names)
        self.calls = np.bincount(self.nid, minlength=width)
        self.self_by_name = np.bincount(self.nid, weights=self.self_time, minlength=width)
        self.total_by_name = np.bincount(self.nid, weights=self.dur, minlength=width)

    def _index(self, name: str):
        return self.names.index(name) if name in self.names else None

    def count(self, name: str) -> int:
        i = self._index(name)
        return 0 if i is None else int(self.calls[i])

    def self_s(self, name: str) -> float:
        i = self._index(name)
        return 0.0 if i is None else float(self.self_by_name[i])

    def total_s(self, name: str) -> float:
        i = self._index(name)
        return 0.0 if i is None else float(self.total_by_name[i])

    def durations(self, name: str) -> np.ndarray:
        i = self._index(name)
        return np.zeros(0) if i is None else self.dur[self.nid == i]

    def captured(self, name: str) -> list:
        """Captured call rows of one KEYED function, every process."""
        return [row for captures in self.process_captures for row in captures[name]]

    def key_reuse_ratio(self, names) -> float:
        """Share of calls whose (k, s) the same function saw earlier in the
        same process; 0 when none of the functions was called."""
        calls = reused = 0
        for captures in self.process_captures:
            for name in names:
                seen = set()
                for row in captures[name]:
                    key = row[:2]
                    calls += 1
                    reused += key in seen
                    seen.add(key)
        return reused / calls if calls else 0.0

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            nid=self.nid,
            parent=self.parent,
            t0=self.t0,
            t1=self.t1,
        )
