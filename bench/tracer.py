"""
Span recorder for the traced benchmark run
==========================================
Times calls into each risfbl module from outside the library: the
public names that the benchmark's ops and ``risfbl.experiments`` and
``risfbl.fbl`` look up at call time are swapped for timing wrappers
while a ``Tracer`` is installed, and restored afterwards.  Nothing under
``src/`` is edited.

A span records its name, start, end, parent span and thread, plus a few
call attributes (element count, phase model, sample budget, guard flag).
Spans are kept in memory; ``Tracer.write`` dumps them as JSON lines at
the end of a pass.  ``layer_metrics`` turns the spans of one traced pass
into the per-layer numbers listed in ``BENCHMARK.json``.
"""

import contextlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field

from risfbl import channel, experiments, fbl, montecarlo, specfun

# (span name, modules whose global of that name is swapped).  A library
# function reaches another module's function through its own module
# globals, so each name is patched everywhere a traced caller looks it up.
TARGETS = (
    ("experiments.required_elements", (experiments,)),
    ("channel.fit_snr", (channel, experiments)),
    ("specfun.gamma_cdf", (specfun, experiments)),
    ("specfun.log_gamma_kummer_u", (fbl,)),
    ("montecarlo.sample_snr", (montecarlo, experiments)),
    ("montecarlo.mc_avg_metrics", (montecarlo, experiments)),
    ("fbl.c1_avg_capacity", (fbl, experiments)),
    ("fbl.c2_avg_sqrt_dispersion", (fbl, experiments)),
    ("fbl.avg_rate_exact", (fbl, experiments)),
    ("fbl.avg_rate_lower_bound", (fbl, experiments)),
    ("fbl.avg_bler", (fbl, experiments)),
    ("fbl.avg_bler_detail", (fbl,)),
)

SAMPLE_N = (16, 256, 2048)
SAMPLE_PHASES = ("perfect", "3bit", "2bit", "1bit", "uniform")
COMPLEX_BYTES = 16


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self):
        return self.end - self.start


def _sample_attrs(args, kwargs):
    gains, n, phase, rho = args[:4]
    cfg = args[4] if len(args) > 4 else kwargs.get("cfg", montecarlo.McConfig())
    label = experiments.phase_label(phase)
    if label.startswith("uniform"):
        label = "uniform"
    return {"n": n, "phase": label, "n_samples": cfg.n_samples,
            "chunk": cfg.chunk}


_ATTRS = {"montecarlo.sample_snr": _sample_attrs}
_RESULT_ATTRS = {"fbl.avg_bler_detail": lambda r: {"flagged": bool(r.flagged)}}


class Tracer:
    """In-memory span recorder; ``installed()`` patches the library."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        rec = Span(sid, name, time.perf_counter(), 0.0, parent,
                   threading.get_ident(), attrs or {})
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def wrap(self, name, fn):
        make_attrs = _ATTRS.get(name)
        result_attrs = _RESULT_ATTRS.get(name)

        def traced(*args, **kwargs):
            attrs = make_attrs(args, kwargs) if make_attrs else None
            with self.span(name, attrs) as rec:
                out = fn(*args, **kwargs)
                if result_attrs:
                    rec.attrs.update(result_attrs(out))
                return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every target name for its timing wrapper, then restore."""
        saved = []
        try:
            for name, modules in TARGETS:
                attr = name.split(".", 1)[1]
                original = getattr(modules[0], attr)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    if getattr(mod, attr) is not original:
                        raise RuntimeError(
                            f"{mod.__name__}.{attr} is not {name}; "
                            "the trace targets no longer match the library")
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def _self_times(spans):
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
    return {s.id: s.dur - child_time.get(s.id, 0.0) for s in spans}


def layer_metrics(spans, traced_wall):
    """Per-layer numbers from the spans of one traced pass.

    ``traced_wall`` is the pass's wall time over its ops; run.py adds
    ``traced_wall_s`` and ``trace_overhead_pct``, which need the untraced
    passes too.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    self_t = _self_times(spans)
    ids = {s.id: s for s in spans}

    def busy(name, pred=lambda s: True):
        return sum(s.dur for s in by_name.get(name, ()) if pred(s))

    def calls(name):
        return len(by_name.get(name, ()))

    samples = by_name.get("montecarlo.sample_snr", [])
    draws = sum(s.attrs["n_samples"] * s.attrs["n"] for s in samples)
    sample_busy = busy("montecarlo.sample_snr")
    chunk_bytes = max((min(s.attrs["chunk"], s.attrs["n_samples"]) * s.attrs["n"]
                       * COMPLEX_BYTES for s in samples), default=0)

    c12 = busy("fbl.c1_avg_capacity") + busy("fbl.c2_avg_sqrt_dispersion")

    m = {
        "montecarlo.sample_snr.busy_s": sample_busy,
        "montecarlo.sample_snr.calls": calls("montecarlo.sample_snr"),
    }
    for n in SAMPLE_N:
        m[f"montecarlo.sample_snr.busy_s.N{n}"] = busy(
            "montecarlo.sample_snr", lambda s, n=n: s.attrs["n"] == n)
    for p in SAMPLE_PHASES:
        m[f"montecarlo.sample_snr.busy_s.{p}"] = busy(
            "montecarlo.sample_snr", lambda s, p=p: s.attrs["phase"] == p
            and s.parent is not None and ids[s.parent].name == "bench.fig2a")
    m.update({
        "montecarlo.sample_snr.element_draws": draws,
        "montecarlo.sample_snr.ns_per_element":
            sample_busy / draws * 1e9 if draws else 0.0,
        "montecarlo.sample_snr.chunk_bytes_computed": chunk_bytes,
        "montecarlo.sample_snr.wall_share_pct":
            100.0 * sample_busy / traced_wall,
        "montecarlo.mc_avg_metrics.busy_s": busy("montecarlo.mc_avg_metrics"),
        "fbl.c1_avg_capacity.busy_s": busy("fbl.c1_avg_capacity"),
        "fbl.c1_avg_capacity.calls": calls("fbl.c1_avg_capacity"),
        "fbl.c2_avg_sqrt_dispersion.busy_s": busy("fbl.c2_avg_sqrt_dispersion"),
        "fbl.c2_avg_sqrt_dispersion.calls": calls("fbl.c2_avg_sqrt_dispersion"),
        "fbl.c1_c2.wall_share_pct": 100.0 * c12 / traced_wall,
        "fbl.avg_rate_lower_bound.self_s": sum(
            self_t[s.id] for s in by_name.get("fbl.avg_rate_lower_bound", ())
        ),
        "fbl.avg_bler.busy_s": busy("fbl.avg_bler"),
        "fbl.avg_bler.guard_flagged": sum(
            s.attrs["flagged"] for s in by_name.get("fbl.avg_bler_detail", ())
        ),
        "specfun.log_gamma_kummer_u.busy_s": busy("specfun.log_gamma_kummer_u"),
        "specfun.log_gamma_kummer_u.calls": calls("specfun.log_gamma_kummer_u"),
        "specfun.gamma_cdf.busy_s": busy("specfun.gamma_cdf"),
        "channel.fit_snr.busy_s": busy("channel.fit_snr"),
        "channel.fit_snr.calls": calls("channel.fit_snr"),
        "experiments.required_elements.busy_s":
            busy("experiments.required_elements"),
        "experiments.required_elements.bler_evals": sum(
            1 for s in by_name.get("fbl.avg_bler", ())
            if s.parent is not None
            and ids[s.parent].name == "experiments.required_elements"),
    })
    return m
