"""Spans at the module boundaries of ncgen, installed from outside.

`install` wraps every public function each layer module defines, and the
public methods (plus the arithmetic operators) of every class it defines,
whatever they are at run time. A wrapped call opens a span (layer, start,
end, parent) when it comes from the benchmark or from another layer; a
call inside one layer runs unwrapped. Each module's own functions are
re-created over a copy of the module namespace in which its own names
are unwrapped, so recursion inside a module adds no frames and no spans
and recursion limits are hit exactly where they are untraced.

Spans are folded into per-layer totals as they close, so memory stays
constant however many spans a pass makes. The wrapper's own cost falls
partly inside the callee's span and partly in the caller's self time; the
traced-minus-untraced run time (trace.overhead_s in run.py) measures it.

* calls      spans opened in the layer
* self_s     span time minus the time covered by child spans
* busy_s     time of the outermost spans of the layer
* failed     spans that ended with an exception
* terms_out  len(result.terms), or len(result) for dicts, over the results
"""

import time
import types

OPERATORS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__")


class Tracer:
    def __init__(self, layers):
        self.layers = list(layers)
        n = len(self.layers)
        self.calls = [0] * n
        self.failed = [0] * n
        self.terms_out = [0] * n
        self.self_s = [0.0] * n
        self.busy_s = [0.0] * n
        self.open = [0] * n
        self.stack = []   # open spans: [layer index, time covered by children]

    def totals(self):
        out = {}
        for i, name in enumerate(self.layers):
            out[name + ".calls"] = self.calls[i]
            out[name + ".self_s"] = self.self_s[i]
            out[name + ".busy_s"] = self.busy_s[i]
            out[name + ".failed"] = self.failed[i]
            out[name + ".terms_out"] = self.terms_out[i]
        return out

    def wrap(self, fn, layer):
        stack, calls, failed, terms_out = (self.stack, self.calls, self.failed,
                                           self.terms_out)
        self_s, busy_s, open_ = self.self_s, self.busy_s, self.open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span = [layer, 0.0]
            stack.append(span)
            open_[layer] += 1
            calls[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[layer] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - span[1]
                open_[layer] -= 1
                if not open_[layer]:
                    busy_s[layer] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            terms = getattr(result, "terms", result)
            if isinstance(terms, dict):
                terms_out[layer] += len(terms)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced


def _clone(fn, namespace):
    new = types.FunctionType(fn.__code__, namespace, fn.__name__,
                             fn.__defaults__, fn.__closure__)
    new.__kwdefaults__ = fn.__kwdefaults__
    new.__qualname__ = fn.__qualname__
    new.__doc__ = fn.__doc__
    new.__dict__.update(fn.__dict__)
    return new


def _own(obj, module):
    return getattr(obj, "__module__", None) == module.__name__


def install(tracer, modules):
    """Wrap the layer modules (a list aligned with tracer.layers, None for absent)."""
    wrapped = {}   # original function -> wrapper
    shadows = []
    for layer, module in enumerate(modules):
        if module is None:
            continue
        namespace = vars(module)
        shadow = dict(namespace)
        shadows.append((module, shadow))
        for name, obj in list(namespace.items()):
            if isinstance(obj, types.FunctionType) and _own(obj, module):
                shadow[name] = _clone(obj, shadow)
                if not name.startswith("_"):
                    wrapped[obj] = tracer.wrap(shadow[name], layer)
                    setattr(module, name, wrapped[obj])
            elif isinstance(obj, type) and _own(obj, module):
                _wrap_class(tracer, obj, layer)
    # references imported from other layers see the wrappers, in the real
    # namespaces and in the shadow copies alike
    for module, shadow in shadows:
        for namespace in (vars(module), shadow):
            for name, obj in list(namespace.items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped \
                        and not _own(obj, module):
                    namespace[name] = wrapped[obj]


def _wrap_class(tracer, cls, layer):
    for name, member in list(vars(cls).items()):
        if name.startswith("_") and name not in OPERATORS:
            continue
        if isinstance(member, types.FunctionType):
            setattr(cls, name, tracer.wrap(member, layer))
        elif isinstance(member, classmethod):
            setattr(cls, name, classmethod(tracer.wrap(member.__func__, layer)))
        elif isinstance(member, staticmethod):
            setattr(cls, name, staticmethod(tracer.wrap(member.__func__, layer)))
