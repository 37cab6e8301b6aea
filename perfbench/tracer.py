"""In-memory spans and counts around the calls between pciclone's layers.

The library is not edited: :func:`instrumented` rebinds the names one
module imported from another (``pciclone.machine.compose``,
``pciclone.montecarlo.block_normals``, ...) to wrappers that record a
span, and restores the originals on exit.  Functions called hundreds of
times per op only get a count, so the wrapper cost stays out of the
self times of their callers.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


def _transform_bytes(args, result):
    return float(result.m_matrix.nbytes + result.l_matrix.nbytes)


def _array_bytes(args, result):
    return float(result.nbytes)


def _transform_flops(args, result):
    # y = x S^T for n samples of 2K quadratures: 2 n (2K)^2 flops.
    transform, _, config = args[:3]
    return 2.0 * config.sample_count * (2 * transform.mode_count) ** 2


# (module whose global is rebound, attribute, span name, work per call).
# Each entry is a place where one layer calls into another; the work
# function turns the call's arguments and result into a computed count.
SPANS = (
    ("cli", "build_machine", "machine.build_machine", None),
    ("cli", "commutation_residual", "canonical.commutation_residual", None),
    ("cli", "to_symplectic", "canonical.to_symplectic", None),
    ("cli", "simulate", "montecarlo.simulate", _transform_flops),
    ("cli", "noise_report", "machine.noise_report", None),
    ("cli", "compare_to_analytic", "montecarlo.compare_to_analytic", None),
    ("machine", "identity_transform", "canonical.identity_transform", _transform_bytes),
    ("machine", "dft_transform", "canonical.dft_transform", _transform_bytes),
    ("machine", "pcia_transform", "canonical.pcia_transform", _transform_bytes),
    ("machine", "embed", "canonical.embed", _transform_bytes),
    ("machine", "compose", "canonical.compose", _transform_bytes),
    ("canonical", "commutation_residual", "canonical.commutation_residual", None),
    ("montecarlo", "commutation_residual", "canonical.commutation_residual", None),
    ("montecarlo", "to_symplectic", "canonical.to_symplectic", None),
    ("montecarlo", "block_normals", "montecarlo.block_normals", _array_bytes),
    ("optimize", "commutation_residual", "canonical.commutation_residual", None),
)
# Called more than ~100 times per op: counted, never timed.
COUNTED = (
    ("optimize", "asymmetry_gain", "machine.asymmetry_gain"),
    ("montecarlo", "fidelity_with_coherent", "gaussian.fidelity_with_coherent"),
)
# Functions the benchmark itself calls, wrapped on its own namespace.
ENTRY = {
    "cmd_verify": ("cli", "cli.cmd_verify"),
    "build_machine": ("machine", "machine.build_machine"),
    "to_symplectic": ("canonical", "canonical.to_symplectic"),
    "apply_map": ("gaussian", "gaussian.apply_map"),
    "simulate": ("montecarlo", "montecarlo.simulate"),
    "noise_report": ("machine", "machine.noise_report"),
    "solve_amplifier": ("optimize", "optimize.solve_amplifier"),
    "minimize_asymmetry": ("optimize", "optimize.minimize_asymmetry"),
}


@dataclass
class Tracer:
    """Spans as tuples (id, name, start, end, parent id, op id, work)."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(Counter))
    op_id: str | None = None
    _stack: list = field(default_factory=list)

    def span(self, name, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, name, start, end, parent, self.op_id, 0.0)
            if work is not None:
                amount = work(args, result)
                self.spans[span_id] = (span_id, name, start, end, parent, self.op_id, amount)
            return result

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.op_id][f"{name}.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, op_id, name, amount):
        self.counts[op_id][name] += amount

    def run_op(self, op_id, name, fn, *args):
        """Run fn(*args) as the root span of op ``op_id``."""
        self.op_id = op_id
        try:
            return self.span(name, fn)(*args)
        finally:
            self.op_id = None


@contextlib.contextmanager
def instrumented(tracer, package):
    """Rebind the cross-layer names of ``package`` to tracing wrappers.

    Yields a dict of traced entry points for the benchmark's own calls.
    """
    saved = []

    def rebind(owner, attr, wrap):
        # A name a module no longer imports is a call that no longer
        # crosses that boundary: nothing to trace there.
        if hasattr(owner, attr):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrap(getattr(owner, attr)))

    try:
        for module, attr, name, work in SPANS:
            rebind(getattr(package, module), attr, lambda fn: tracer.span(name, fn, work))
        for module, attr, name in COUNTED:
            rebind(getattr(package, module), attr, lambda fn: tracer.counter(name, fn))
        rebind(package.gaussian.SymplecticMap, "residual",
               lambda fn: tracer.span("gaussian.symplectic_residual", fn))
        entry = {
            attr: tracer.span(name, getattr(getattr(package, module), attr))
            for attr, (module, name) in ENTRY.items()
        }
        yield entry
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans):
    """Per span id: duration minus the time its direct children cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own
