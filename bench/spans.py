"""Span tracer that wraps the library's public functions at module attributes.

Every call into a wrapped function while an operation is active records one
span (id, name, start, end, parent id, operation id).  Self time, the span's
duration minus the time covered by its children, is accumulated per name as
the spans close, so the per-layer numbers need no second pass; the raw spans
stay in memory and are written out once, at the end of the run.

Functions are wrapped at every module attribute that refers to them, because
that is how one layer calls another (``subriemannian.su2_exp`` is the same
object as ``expmap.su2_exp``).  Nothing inside ``src/`` is edited: the
original attributes are restored by ``Tracer.detach``.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

# The scipy solvers the shooting stage imports into its own namespace.
SOLVERS = ("root", "least_squares", "minimize")


class Tracer:
    """Records spans for calls made while ``op`` is set; ``op = None`` pauses it."""

    def __init__(self):
        self.op: int | None = None
        self.names: list[str] = []
        self.spans = array("q")  # flat records of 6 ints, see SPAN_FIELDS
        self.self_ns: dict[int, int] = defaultdict(int)
        self.calls: dict[int, int] = defaultdict(int)
        self.mat2c = 0
        self.root_ok = 0
        self._stack: list[list[int]] = [[-1, 0]]  # [span id, child ns] per open span
        self._next_id = 0
        self._patches: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper

    SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "op")

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                tracer.self_ns[nid] += dur - frame[1]
                tracer.calls[nid] += 1
                spans.extend((sid, nid, t0, t1, parent[0], op))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), value))

    def install(self, package) -> None:
        """Wrap the package's public functions, `ProductExpParams.point`, `cli.main`,
        the scipy solvers `subriemannian` calls, and count `Mat2C` constructions.

        The wrappers are built once; `attach` and `detach` swap them in and out."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
        targets = {}
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isfunction(obj):
                targets[id(obj)] = (obj, f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__qualname__}")
        cli = sys.modules.get(package.__name__ + ".cli")
        if cli is not None:
            targets[id(cli.main)] = (cli.main, "cli.main")
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is targets[id(value)][0]:
                    self._patch(mod, attr, wrappers[id(value)])

        sr = sys.modules[package.__name__ + ".subriemannian"]
        for solver in SOLVERS:
            hook = self._count_root if solver == "root" else None
            self._patch(sr, solver, self._wrap(getattr(sr, solver), f"subriemannian.{solver}", hook))

        pep = package.ProductExpParams
        self._patch(pep, "point", self._wrap(pep.point, "expmap.ProductExpParams.point"))

        mat2c = package.Mat2C
        init = mat2c.__init__
        tracer = self

        def counting_init(obj, *args, **kwargs):
            if tracer.op is not None:
                tracer.mat2c += 1
            init(obj, *args, **kwargs)

        self._patch(mat2c, "__init__", counting_init)

    def _count_root(self, sol) -> None:
        self.root_ok += bool(sol.success)

    def attach(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def detach(self) -> None:
        """Restore every original attribute."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def by_name(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, self ns) over every recorded span."""
        return {self.names[nid]: (self.calls[nid], self.self_ns[nid]) for nid in self.calls}

    def self_ns_by_layer(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, (_, ns) in self.by_name().items():
            out[name.split(".", 1)[0]] += ns
        return dict(out)

    def counts_by_op(self, name: str) -> dict[int, int]:
        """operation id -> number of `name` spans recorded in it."""
        nid = self.names.index(name)
        out: dict[int, int] = defaultdict(int)
        rec = self.spans
        for k in range(0, len(rec), 6):
            if rec[k + 1] == nid:
                out[rec[k + 5]] += 1
        return dict(out)

    def write(self, path) -> int:
        """Write every span as CSV; returns the number of spans."""
        rec = self.spans
        n = len(rec) // 6
        with open(path, "w") as fh:
            fh.write(",".join(self.SPAN_FIELDS) + "\n")
            for k in range(0, len(rec), 6):
                sid, nid, t0, t1, parent, op = rec[k:k + 6]
                fh.write(f"{sid},{self.names[nid]},{t0},{t1},{parent},{op}\n")
        return n
