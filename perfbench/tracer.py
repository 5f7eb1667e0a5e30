"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``toepkern`` module from
outside: the wrapper replaces the function in the module that defines it and
in every ``toepkern`` module that imported it by name, so calls made through
``from .symbols import series_inverse`` are seen too.  Spans stay in memory
and are reduced to per-layer metrics when the run ends.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# layer -> wrapped public functions; fixtures only builds inputs (set-up)
LAYERS = {
    "symbols": ("symbol_mul", "series_inverse", "sample_symbol",
                "symbol_from_samples", "apply_symbol", "cayley",
                "herglotz_taylor"),
    "toeplitz": ("build_toeplitz", "kernel_basis", "orthonormal_basis",
                 "subspace_angle"),
    "factor": ("is_inner", "shift_span", "bauer_factorize", "outer_exp_log",
               "divide_inner", "garcia_inner"),
    "nearly": ("model_space_basis", "sarason_B", "sarason_equivalence",
               "verify_lemma31", "counterexample_UBU", "is_nearly_invariant"),
    "hayashi": ("classify_kernel", "construct_kernel", "embed_rect",
                "pair_from_B", "special_test", "rigidity_test",
                "toeplitz_symbol", "pair_identity_defect"),
    "cli": ("main",),
}

ROUTES = ("fejer_riesz", "exp_log", "cholesky")
DECIDED = ("is-kernel", "not-kernel")


# -- work computed from call inputs ------------------------------------------

def _mul_macs(a, b):
    return a.coeffs.shape[0] * b.coeffs.shape[0] * a.rows * a.cols * b.cols


def _inverse_macs(a, N):
    d = max(a.max_deg, 0)
    lo = min(d, N)
    return (lo * (lo + 1) // 2 + (N - lo) * d) * a.rows ** 3


def _toeplitz_mb(phi, N):
    return (N + 1) ** 2 * phi.rows * phi.cols * 16 / 1e6


def _kernel_n3(T, config=None):
    rows, cols = T.matrix.shape
    return rows * cols * cols


def _model_space_n3(U, N, config=None):
    dim = U.rows * max(N - U.max_deg + 1, 0)
    return dim ** 3


WORK = {
    "symbols.symbol_mul": ("symbols.symbol_mul.macs", _mul_macs),
    "symbols.series_inverse": ("symbols.series_inverse.macs", _inverse_macs),
    "toeplitz.build_toeplitz": ("toeplitz.build_toeplitz.mb", _toeplitz_mb),
    "toeplitz.kernel_basis": ("toeplitz.kernel_basis.n3", _kernel_n3),
    "nearly.model_space_basis": ("nearly.model_space_basis.n3", _model_space_n3),
}


class Recorder:
    """In-memory spans plus the counters taken at the same boundaries.

    A span is the list [name, start, end, parent index, root index, marks];
    marks collects the route markers seen below it.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.work = defaultdict(float)
        self.routes = Counter()
        self.precondition_errors = 0
        self.verdict_calls = 0
        self.decided_calls = 0

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        root = self.spans[parent][4] if parent >= 0 else len(self.spans)
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, root, None])
        self.stack.append(idx)
        return idx

    def mark(self, marker):
        """Tag every open span with a route marker."""
        for idx in self.stack:
            span = self.spans[idx]
            if span[5] is None:
                span[5] = set()
            span[5].add(marker)

    def wrap(self, name, fn, precondition_error):
        layer = name.split(".", 1)[0]
        work = WORK.get(name)
        marker = name == "factor.outer_exp_log"
        route = name == "factor.bauer_factorize"
        verdict = name in ("hayashi.classify_kernel", "hayashi.embed_rect")
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if work is not None:
                self.work[work[0]] += work[1](*args, **kwargs)
            if marker:
                self.mark("exp_log")
            idx = self._open(name)
            span = spans[idx]
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except precondition_error as exc:
                if layer == "hayashi" and not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    self.precondition_errors += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if verdict:
                    self.verdict_calls += 1
            if route:
                marks = span[5] or ()
                self.routes["exp_log" if "exp_log" in marks else
                            "cholesky" if "cholesky" in marks else
                            "fejer_riesz"] += 1
            if verdict:
                final = (result.classification.final
                         if name == "hayashi.embed_rect" else result.final)
                self.decided_calls += final in DECIDED
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """Per-span self seconds: duration minus what child spans cover."""
        covered = [[] for _ in self.spans]
        for idx, span in enumerate(self.spans):
            if span[3] >= 0:
                covered[span[3]].append((span[1], span[2]))
        out = []
        for span, kids in zip(self.spans, covered):
            start, end = span[1], span[2]
            busy, edge = 0.0, start
            for lo, hi in sorted(kids):
                lo, hi = max(lo, edge), min(hi, end)
                if hi > lo:
                    busy += hi - lo
                    edge = hi
            out.append(end - start - busy)
        return out

    def summary(self, passes):
        """Per-pass layer metrics plus the consistency of the self times."""
        selfs = self.self_times()
        by_fn_s = defaultdict(float)
        by_fn_calls = Counter()
        root_total = defaultdict(float)
        for span, own in zip(self.spans, selfs):
            by_fn_s[span[0]] += own
            by_fn_calls[span[0]] += 1
            root_total[span[4]] += own
        worst = 0.0
        top_s = 0.0
        for idx, span in enumerate(self.spans):
            if span[3] < 0:
                dur = span[2] - span[1]
                top_s += dur
                worst = max(worst, abs(root_total[idx] - dur))
        out = {}
        for layer, fns in LAYERS.items():
            total = 0.0
            for fn in fns:
                name = f"{layer}.{fn}"
                out[f"{name}.s"] = by_fn_s[name] / passes
                out[f"{name}.calls"] = by_fn_calls[name] / passes
                total += by_fn_s[name]
            out[f"{layer}.s"] = total / passes
        for key, _ in WORK.values():
            out[key] = self.work[key] / passes
        for r in ROUTES:
            out[f"factor.bauer_factorize.route.{r}"] = self.routes[r] / passes
        out["hayashi.precondition_errors"] = self.precondition_errors / passes
        out["hayashi.decided_frac"] = (
            self.decided_calls / self.verdict_calls if self.verdict_calls else 1.0)
        return out, top_s / passes, worst


def _toepkern_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "toepkern" or name.startswith("toepkern."))]


@contextmanager
def installed(recorder):
    """Wrap every listed function wherever toepkern bound it; undo on exit."""
    from toepkern.factor import PreconditionError

    undo = []
    modules = [importlib.import_module(f"toepkern.{layer}") for layer in LAYERS]
    holders = _toepkern_modules()
    for layer, mod in zip(LAYERS, modules):
        for fn in LAYERS[layer]:
            orig = getattr(mod, fn)
            wrapped = recorder.wrap(f"{layer}.{fn}", orig, PreconditionError)
            for holder in holders:
                if holder.__dict__.get(fn) is orig:
                    setattr(holder, fn, wrapped)
                    undo.append((holder, fn, orig))
    cholesky = np.linalg.cholesky

    def traced_cholesky(*args, **kwargs):
        recorder.mark("cholesky")
        return cholesky(*args, **kwargs)

    np.linalg.cholesky = traced_cholesky
    undo.append((np.linalg, "cholesky", cholesky))
    try:
        yield recorder
    finally:
        for holder, fn, orig in reversed(undo):
            setattr(holder, fn, orig)
