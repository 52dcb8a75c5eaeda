"""Tracing from outside the program.

A traced run replaces each traced public function of ``eivpcr`` with a
wrapper wherever a caller looks it up (every ``eivpcr`` module namespace
that binds it, e.g. ``fit`` as imported into ``synthetic_control``,
``simlab.experiments`` and ``cli``), and ``numpy.linalg.svd`` on the
``numpy.linalg`` module. Each wrapper records a span: name, start, end,
parent and operation id. The parent stack is per thread; trials handed to
the lab's worker pool get the pool's span as an explicit parent, so spans
from workers nest correctly. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# traced functions per defining module, mapped to span names
_DATAIO_READS = ("read_masked_csv", "read_response_csv", "read_panel_csv", "read_model")
_DATAIO_WRITES = ("write_model", "write_records_csv", "write_json", "write_masked_csv")
TARGETS = {
    "eivpcr.cli": ("main",),
    "eivpcr.dataio": _DATAIO_READS + _DATAIO_WRITES,
    "eivpcr.core": ("rescale", "svd", "spectral_norm", "truncate_rank"),
    "eivpcr.pcr": ("fit", "predict_detailed", "predict", "check_subspace_inclusion"),
    "eivpcr.rank_selection": ("gap_ratios", "select_rank_largest_gap", "select_rank_energy"),
    "eivpcr.synthetic_control": ("fit_rsc",),
    "eivpcr.simlab.experiments": (
        "make_identification_trial", "make_shift_trial", "make_subspace_trial", "_run_trials",
    ),
}
LAPACK_SVD = "numpy.linalg.svd"


def _span_name(module: str, func: str) -> str:
    layer = module.removeprefix("eivpcr.").split(".")[0]
    return f"{layer}.{func}"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one tracer per traced cycle."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ops = 0

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, parent: Span | None = None, new_op: bool = False):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            if new_op or parent is None:
                self._ops += 1
                op = self._ops
            else:
                op = parent.op
            sp = Span(len(self.spans), name, parent.id if parent else None, op)
            self.spans.append(sp)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()


def _wrapper(tracer: Tracer, name: str, fn):
    if name == "cli.main":
        @functools.wraps(fn)
        def traced(argv=None):
            with tracer.span(name, new_op=True) as sp:
                sp.info["command"] = argv[0] if argv else None
                return fn(argv)
    elif name == "simlab._run_trials":
        @functools.wraps(fn)
        def traced(trial_fn, keys, threads):
            with tracer.span(name) as pool:
                pool.info["workers"] = threads

                def trial(*key):
                    with tracer.span("simlab.trial", parent=pool):
                        return trial_fn(*key)

                return fn(trial, keys, threads)
    elif name == "dataio.read_masked_csv":
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as sp:
                out = fn(*args, **kwargs)
                sp.info["cells"] = int(out.values.size)
                return out
    elif name.removeprefix("dataio.") in _DATAIO_WRITES:
        @functools.wraps(fn)
        def traced(obj, path, *args, **kwargs):
            with tracer.span(name) as sp:
                fn(obj, path, *args, **kwargs)
                sp.info["bytes"] = os.path.getsize(path)
    elif name == LAPACK_SVD:
        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            with tracer.span(name) as sp:
                sp.info["shape"] = tuple(getattr(a, "shape", ()))
                sp.info["vectors"] = kwargs.get("compute_uv", True)
                return fn(a, *args, **kwargs)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Patch every lookup site of the traced functions; restore on exit."""
    import numpy.linalg

    import eivpcr.cli  # noqa: F401  (loads every module that gets patched)

    wrappers = {}
    for module, funcs in TARGETS.items():
        for func in funcs:
            fn = getattr(sys.modules[module], func)
            wrappers[id(fn)] = (fn, _wrapper(tracer, _span_name(module, func), fn))
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "eivpcr" and not modname.startswith("eivpcr."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patched.append((mod, attr, value))
                setattr(mod, attr, hit[1])
    lapack = numpy.linalg.svd
    patched.append((numpy.linalg, "svd", lapack))
    numpy.linalg.svd = _wrapper(tracer, LAPACK_SVD, lapack)
    try:
        yield
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced cycle


def svd_flops(shape, vectors: bool) -> float:
    """Operation count of a thin SVD of an m x n matrix, the cheaper of the
    Golub-Reinsch and R-SVD counts (Golub & Van Loan, Matrix Computations,
    3rd ed., SVD operation counts). Computed from the shape, not measured."""
    m, n = max(shape[-2:]), min(shape[-2:])
    if vectors:
        return min(14 * m * n * n + 8 * n**3, 6 * m * n * n + 20 * n**3)
    return min(4 * m * n * n - 4 * n**3 / 3, 2 * m * n * n + 2 * n**3)


class Analysis:
    """Layer times and counts derived from one cycle's spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, names) -> list[Span]:
        names = {names} if isinstance(names, str) else set(names)
        return [s for s in self.spans if s.name in names]

    def has_ancestor(self, span: Span, names) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False

    def inclusive(self, names) -> float:
        """Time in spans of ``names``, not counting one nested in another."""
        names = {names} if isinstance(names, str) else set(names)
        return sum((s.duration for s in self.named(names) if not self.has_ancestor(s, names)), 0.0)

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it covered by child spans (their
        union, so overlapping children on worker threads count once)."""
        covered, edge = 0.0, span.start
        for c in sorted(self.children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        return span.duration - covered

    def count_under(self, names, ancestors) -> int:
        return sum(1 for s in self.named(names) if self.has_ancestor(s, ancestors))

    def per(self, count: int, names) -> float:
        base = len(self.named(names))
        return count / base if base else 0.0

    def lapack_calls_per_command(self, command: str) -> float:
        ops = {s.op for s in self.named("cli.main") if s.info["command"] == command}
        calls = sum(1 for s in self.named(LAPACK_SVD) if s.op in ops)
        return calls / len(ops) if ops else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-cycle values of the per-layer metrics that spans can give."""
    a = Analysis(spans)
    reads = {f"dataio.{f}" for f in _DATAIO_READS}
    writes = {f"dataio.{f}" for f in _DATAIO_WRITES}
    lapack = a.named(LAPACK_SVD)
    read_s = a.inclusive(reads)
    cells = sum(s.info["cells"] for s in a.named("dataio.read_masked_csv"))
    pools = a.named("simlab._run_trials")
    pool_capacity = sum(p.info["workers"] * p.duration for p in pools)
    trial_time = sum(s.duration for s in a.named("simlab.trial"))
    return {
        "cli.main_self_s": sum(a.self_time(s) for s in a.named("cli.main")),
        "cli.fit_lapack_svd_calls": a.lapack_calls_per_command("fit"),
        "cli.predict_lapack_svd_calls": a.lapack_calls_per_command("predict"),
        "cli.spectrum_lapack_svd_calls": a.lapack_calls_per_command("spectrum"),
        "cli.sc_lapack_svd_calls": a.lapack_calls_per_command("sc"),
        "dataio.read_s": read_s,
        "dataio.cells_read": cells,
        "dataio.read_cells_per_s": cells / read_s if read_s else 0.0,
        "dataio.write_s": a.inclusive(writes),
        "dataio.bytes_written": sum(s.info["bytes"] for s in a.named(writes)),
        "core.rescale_s": a.inclusive("core.rescale"),
        "core.svd_s": a.inclusive("core.svd"),
        "core.svd_calls": len(a.named("core.svd")),
        "core.lapack_svd_s": a.inclusive(LAPACK_SVD),
        "core.lapack_svd_calls": len(lapack),
        "core.lapack_svd_gflop": sum(svd_flops(s.info["shape"], s.info["vectors"]) for s in lapack) / 1e9,
        "core.svd_wrapper_s": sum(a.self_time(s) for s in a.named("core.svd")),
        "core.spectral_norm_s": a.inclusive("core.spectral_norm"),
        "core.truncate_rank_s": a.inclusive("core.truncate_rank"),
        "pcr.fit_s": a.inclusive("pcr.fit"),
        "pcr.predict_detailed_s": a.inclusive("pcr.predict_detailed"),
        "pcr.check_subspace_inclusion_s": a.inclusive("pcr.check_subspace_inclusion"),
        "rank_selection.select_s": a.inclusive(
            {"rank_selection.gap_ratios", "rank_selection.select_rank_largest_gap",
             "rank_selection.select_rank_energy"}),
        "synthetic_control.fit_rsc_s": a.inclusive("synthetic_control.fit_rsc"),
        "synthetic_control.lapack_svd_calls_per_fit": a.per(
            a.count_under(LAPACK_SVD, {"synthetic_control.fit_rsc"}), "synthetic_control.fit_rsc"),
        "simlab.make_trial_s": a.inclusive(
            {"simlab.make_identification_trial", "simlab.make_shift_trial",
             "simlab.make_subspace_trial"}),
        "simlab.lapack_svd_calls_per_trial": a.per(
            a.count_under(LAPACK_SVD, {"simlab.trial"}), "simlab.trial"),
        "simlab.worker_busy_frac": trial_time / pool_capacity if pool_capacity else 0.0,
    }
