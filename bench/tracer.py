"""Layer tracing for the benchmark worker, applied from outside the package.

Layers are the ``wirediff`` modules.  ``Tracer.install`` replaces every
function that one module imported from another by a wrapper that records a
span of the callee's layer, so the calls are traced under the names other
modules call them by (``wirediff.twobeam.hyp0f1_reg2``,
``wirediff.cli.phi_theta_scan``, ``wirediff.analysis.find_zero`` ...).
Classes are traced through their constructor, public methods, class and
static methods and properties.  A function of one layer handed to another
as an argument (the amplitude callback that ``analysis`` passes to
``numerics.find_zero``) is traced as a span of the layer that defined it.
Calls inside one module are not traced: they count as that module's own
time.

Every span records (layer, start, end, parent span) for the current op and
stays in memory; a layer's self time is its spans' time minus the time
covered by their child spans.  Kernel evaluations are counted at the same
boundary: each call of a ``numerics`` function other than the root finder
and the quadrature oracle counts the elements of its first argument (1 for
a scalar), attributed to the calling module as well.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import types
from enum import Enum

PACKAGE = "wirediff"
ROOT_LAYER = "cli"
KERNEL_LAYER = "numerics"
# numerics functions that are not element-wise kernels
NOT_KERNELS = frozenset({"find_zero", "disk_ft_oracle"})
# raw spans written out per run; self times and counts are kept for every op
KEEP_SPANS = 20_000


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.layer_index: dict[str, int] = {}
        self.span_layer: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.current = -1
        self.counts: dict[str, int] = {}
        self.op_id = 0
        # raw spans of the first ops, as [op, layer, start_s, end_s, parent]
        self.kept: list[list] = []

    # -- installation ----------------------------------------------------

    def _layer(self, module_name: str) -> int:
        name = module_name.rsplit(".", 1)[-1]
        if name not in self.layer_index:
            self.layer_index[name] = len(self.layers)
            self.layers.append(name)
        return self.layer_index[name]

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [importlib.import_module(f"{PACKAGE}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        names = {m.__name__ for m in modules}
        self._module_names = names
        for module in modules:
            self._layer(module.__name__)
            caller = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if (isinstance(obj, types.FunctionType) and obj.__module__ in names
                        and obj.__module__ != module.__name__):
                    setattr(module, attr, self._wrap(obj, caller))
                elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                        and not issubclass(obj, (Enum, BaseException))):
                    self._wrap_class(obj)

    def _wrap_class(self, cls) -> None:
        for attr, member in list(vars(cls).items()):
            public = not attr.startswith("_")
            if isinstance(member, types.FunctionType) and (public or attr == "__init__"):
                setattr(cls, attr, self._wrap(member, None, module=cls.__module__))
            elif isinstance(member, classmethod) and public:
                setattr(cls, attr, classmethod(
                    self._wrap(member.__func__, None, module=cls.__module__)))
            elif isinstance(member, staticmethod) and public:
                setattr(cls, attr, staticmethod(
                    self._wrap(member.__func__, None, module=cls.__module__)))
            elif isinstance(member, property) and public and member.fget is not None:
                setattr(cls, attr, property(
                    self._wrap(member.fget, None, module=cls.__module__),
                    member.fset, member.fdel, member.__doc__))

    def _wrap(self, fn, caller: str | None, module: str | None = None):
        module = module or fn.__module__
        layer = self._layer(module)
        kernel = (module.rsplit(".", 1)[-1] == KERNEL_LAYER
                  and fn.__name__ not in NOT_KERNELS)
        keys = (f"{KERNEL_LAYER}.kernel_evals", f"{caller}.kernel_evals_from")
        names = self._module_names
        tracer = self

        def foreign(arg) -> bool:
            # a function of another wirediff module passed in as a callback
            return (type(arg) is types.FunctionType and arg.__module__ in names
                    and arg.__module__ != module)

        perf = time.perf_counter
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kernel:
                n = getattr(args[0], "size", 1) if args else 1
                counts = tracer.counts
                counts[keys[0]] = counts.get(keys[0], 0) + n
                counts[keys[1]] = counts.get(keys[1], 0) + n
            elif any(map(foreign, args)):
                args = tuple(tracer._wrap(a, None) if foreign(a) else a for a in args)
            parent = tracer.current
            index = len(span_start)
            span_layer.append(layer)
            span_parent.append(parent)
            span_end.append(0.0)
            tracer.current = index
            span_start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = perf()
                tracer.current = parent

        return wrapper

    # -- per-op bookkeeping ----------------------------------------------

    def run_op(self, main, argv):
        """Run ``main(argv)`` as the root span of one op; return rc, seconds, summary."""
        self.counts = {}
        self.current = -1
        del self.span_layer[:], self.span_parent[:], self.span_start[:], self.span_end[:]
        root = self._wrap(main, None, module=f"{PACKAGE}.{ROOT_LAYER}")
        try:
            rc = root(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        seconds = self.span_end[0] - self.span_start[0]
        summary = {"self_s": self._self_times(), "counts": dict(self.counts)}
        self._keep()
        self.op_id += 1
        return rc, seconds, summary

    def _self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.span_start)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += self.span_end[i] - self.span_start[i]
        totals = [0.0] * len(self.layers)
        for i, layer in enumerate(self.span_layer):
            totals[layer] += (self.span_end[i] - self.span_start[i]) - covered[i]
        return {name: totals[i] for i, name in enumerate(self.layers)}

    def _keep(self) -> None:
        room = KEEP_SPANS - len(self.kept)
        if room <= 0:
            return
        t0 = self.span_start[0]
        for i in range(min(room, len(self.span_start))):
            self.kept.append([self.op_id, self.layers[self.span_layer[i]],
                              self.span_start[i] - t0, self.span_end[i] - t0,
                              self.span_parent[i]])
