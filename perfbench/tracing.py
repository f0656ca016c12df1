"""Per-layer figures of a pass: call counts, and span times by sampling.

The program carries no instrumentation of its own, so the traced run looks
at it from outside, in two ways.

`Counter` counts calls.  It wraps names from outside: every module attribute
under `carlitz` that refers to a counted function is replaced, which catches
calls made inside the package (`carlitz.jets.binom_mod_p` and
`carlitz.density.binom_mod_p` are the same function looked up in two
places).  Methods are wrapped on their class.  A wrapper costs about a
microsecond a call, as much as `binom_mod_p` itself, so a counting pass is
not timed.

`Sampler` times spans without wrappers.  About every millisecond of CPU
time (SIGPROF) it reads the Python stack, and gives the wall time since the
last sample to every span on it (inclusive time) and to the innermost one
(self time).  A span is a call of one of the same functions; code outside
every span counts as self time of the benchmark's own pass, the root span,
so the self times of a pass add up to its inclusive time.  A sample that
arrives during a long call into C is read when the call returns to Python,
in the frame that made it, with the whole time since the last sample.
"""

from __future__ import annotations

import signal
import sys
import time
from collections import defaultdict

import carlitz
import carlitz.binomials
import carlitz.cinfty
import carlitz.cli
import carlitz.density
import carlitz.field
import carlitz.jets
import carlitz.series

LAYERS = ("field", "binomials", "series", "jets", "cinfty", "density", "cli")

ROOT = "bench.pass"

# (layer, function name) for the module-level functions the workloads reach,
# counted wherever a carlitz module (or the package) binds them.
FUNCTIONS = (
    ("field", "spec_for_order"),
    ("binomials", "binom_mod_p"),
    ("jets", "hyperderiv"),
    ("jets", "jet"),
    ("jets", "verify_leibniz"),
    ("jets", "verify_iteration"),
    ("jets", "verify_taylor"),
    ("cinfty", "compute_omega"),
    ("cinfty", "jet_columns"),
    ("cinfty", "verify_carlitz_equation"),
    ("cinfty", "verify_prolongation_trivialization"),
    ("cinfty", "verify_hhat_membership"),
    ("density", "galois_rep"),
    ("density", "image_order_brute"),
    ("density", "image_order_formula"),
    ("density", "build_density_table"),
    ("density", "tensor_image_order_brute"),
    ("density", "tensor_image_order_formula"),
    ("density", "build_tensor_table"),
    ("density", "zariski_rank_certificate"),
    ("cli", "main"),
)

# (layer, class name, method, span name) for methods.
METHODS = (
    ("field", "FqSpec", "element", "FqSpec.element"),
    ("series", "TruncSeries", "__pow__", "TruncSeries.pow"),
    ("jets", "JetMatrix", "__mul__", "JetMatrix.mul"),
    ("cinfty", "UInftyElem", "__init__", "UInftyElem.init"),
    ("cinfty", "UInftyElem", "__mul__", "UInftyElem.mul"),
    ("cinfty", "UInftyElem", "__rmul__", "UInftyElem.mul"),
)

# TruncSeries products switch to the numpy convolution at this precision.
NP_MUL_MIN_PREC = getattr(carlitz.series, "_NP_MUL_MIN_PREC", 16)


def series_mul_span(x, y):
    """The span of the product x * y: by scalar, small, or numpy."""
    if not isinstance(y, carlitz.series.TruncSeries):
        return "series.mul_scalar"
    return "series.mul_np" if min(x.prec, y.prec) >= NP_MUL_MIN_PREC else "series.mul_small"


def targets():
    """(span name, owner, attribute, function) for everything that is a span."""
    out = []
    for layer, name in FUNCTIONS:
        fn = getattr(getattr(carlitz, layer), name, None)
        if fn is not None:
            out.append((f"{layer}.{name}", getattr(carlitz, layer), name, fn))
    for layer, cls_name, meth, span in METHODS:
        cls = getattr(getattr(carlitz, layer), cls_name, None)
        if cls is not None and meth in vars(cls):
            out.append((f"{layer}.{span}", cls, meth, vars(cls)[meth]))
    return out


class Counter:
    """Calls per span name, and counts the density functions report."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._undo = []

    def _counted(self, name, fn, observe=None):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _series_mul(self, fn):
        calls = self.calls

        def wrapper(x, y):
            calls[series_mul_span(x, y)] += 1
            return fn(x, y)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing wrappers ---------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        observers = {
            "density.image_order_brute": self._observe_brute,
            "density.tensor_image_order_brute": self._observe_tensor,
            "density.zariski_rank_certificate": self._observe_zariski,
        }
        for name, owner, attr, fn in targets():
            wrapper = self._counted(name, fn, observers.get(name))
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for modname, mod in list(sys.modules.items()):
                if modname == "carlitz" or modname.startswith("carlitz."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, key, wrapper)
        series_cls = carlitz.series.TruncSeries
        self._set(series_cls, "__mul__", self._series_mul(series_cls.__dict__["__mul__"]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _observe_brute(self, args, kwargs, out):
        spec, k, n = args[:3]
        m = kwargs.get("enum_precision") or n + k
        self.counts["density.image_order_brute.units"] += carlitz.unit_count(spec.q, m)
        self.counts["density.image_order_brute.distinct"] += out

    def _observe_tensor(self, args, kwargs, out):
        spec, _, n = args[:3]
        self.counts["density.tensor_image_order_brute.units"] += carlitz.unit_count(spec.q, n)

    def _observe_zariski(self, args, kwargs, out):
        self.counts["density.zariski_rank_certificate.rank"] += out.rank
        self.counts["density.zariski_rank_certificate.columns"] += out.n_columns


def _series_frame_span(frame):
    loc = frame.f_locals
    return series_mul_span(loc.get("self"), loc.get("other"))


class Sampler:
    """Inclusive and self seconds per span name, from SIGPROF samples.

    Use as a context manager around each pass; it samples only inside.
    """

    INTERVAL_S = 0.001

    def __init__(self):
        self.spans = defaultdict(lambda: [0.0, 0.0])   # name -> [inclusive s, self s]
        self.samples = 0
        self._names = {fn.__code__: name for name, _, _, fn in targets()}
        self._names[carlitz.series.TruncSeries.__mul__.__code__] = _series_frame_span
        self._last = 0.0
        self._old = None

    def _on_sample(self, signum, frame):
        now = time.perf_counter()
        dt, self._last = now - self._last, now
        names, spans = self._names, self.spans
        on_stack = []
        while frame is not None:
            name = names.get(frame.f_code)
            if name is not None:
                if not isinstance(name, str):
                    name = name(frame)
                if name not in on_stack:
                    on_stack.append(name)
            frame = frame.f_back
        spans[on_stack[0] if on_stack else ROOT][1] += dt
        on_stack.append(ROOT)
        for name in on_stack:
            spans[name][0] += dt
        self.samples += 1

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._on_sample)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)

    def seconds(self, name):
        return self.spans[name][0] if name in self.spans else 0.0

    def self_seconds(self, name):
        return self.spans[name][1] if name in self.spans else 0.0

    def layer_self_seconds(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, self_s) in self.spans.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += self_s
        return out
