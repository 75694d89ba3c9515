"""Spans and counters recorded around calls into pdswave's public functions.

Nothing inside the package is changed.  `installed` replaces a function at
each import site the pipeline calls it through (a module attribute, or the
`from_triplets` class attribute) by a wrapper, and puts the original back
when the block ends.  Spans are kept in memory; each has a name, a start,
an end and the id of the span that was open when it began.

Two sets of wrappers exist:

* the counting set, installed on every iteration: `leapfrog_run` (its entry
  time, exit time and arguments give setup_s and step_ms, also when the
  call happens inside `cli.main`), `estimate_spectral_bound` (so the solves
  it makes can be told apart from the leapfrog's) and `pcg_solve` (which is
  passed `info=` to read the iteration count).  These take two clock reads
  per leapfrog call and none per solve.
* the tracing set, installed on traced iterations only: the counting set
  plus every other layer function listed in `LAYER_SITES`.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import pdswave.assembly as assembly
import pdswave.charts as charts
import pdswave.cli as cli
import pdswave.domain as domain
import pdswave.evolve as evolve
import pdswave.icosian as icosian
import pdswave.mesh_io as mesh_io
import pdswave.meshing as meshing
import pdswave.spectra as spectra

# span name -> the (owner, attribute) pairs the pipeline calls it through
LAYER_SITES = {
    "domain.build": [(domain, "build_domain"), (cli, "build_domain")],
    "icosian.group": [(icosian, "generate_group"), (cli, "generate_group")],
    "icosian.orbit": [(icosian, "orbit_vertices"), (cli, "orbit_vertices")],
    "charts.triangulate": [(charts, "triangulate_face_chart"),
                           (meshing, "triangulate_face_chart")],
    "meshing.boundary": [(meshing, "build_boundary_mesh")],
    "meshing.volume": [(meshing, "build_volume_mesh")],
    "meshing.validate": [(meshing, "validate_mesh"), (cli, "validate_mesh"),
                         (mesh_io, "validate_mesh")],
    "assembly.dof_map": [(assembly, "build_dof_map"), (cli, "build_dof_map")],
    "assembly.assemble": [(assembly, "assemble"), (cli, "assemble")],
    "assembly.from_triplets": [(assembly.SparseSymMatrix, "from_triplets")],
    "evolve.precond_setup": [(evolve, "make_preconditioner"),
                             (cli, "make_preconditioner")],
    "spectra.analyze": [(spectra, "analyze_probe_signals"),
                        (cli, "analyze_probe_signals")],
    "mesh_io.import": [(mesh_io, "import_mesh"), (cli, "import_mesh")],
}
# written files are measured after the call: the path arguments that hold them
FILE_WRITERS = {
    "mesh_io.export": ([(mesh_io, "export_mesh"), (cli, "export_mesh")], (1, 2)),
    "mesh_io.vtk": ([(mesh_io, "write_vtk_mesh"), (cli, "write_vtk_mesh")], (0,)),
}
LEAPFROG_SITES = [(evolve, "leapfrog_run"), (cli, "leapfrog_run")]
BOUND_SITES = [(assembly, "estimate_spectral_bound"),
               (cli, "estimate_spectral_bound")]
PCG_SITES = [(evolve, "pcg_solve")]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class LeapfrogCall:
    enter: float
    exit: float
    mass: object
    wave: object
    dt: float
    steps: int
    result: object


class Recorder:
    """Spans and counts of one workload iteration.

    With `trace` false no span is stored; the stack of open scope names is
    still kept, so that each mass solve is attributed to the power iteration
    or to the leapfrog that made it.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[Span] = []
        self._open: list[tuple[str, int | None]] = []
        self.power_solves: list[int] = []      # PCG iterations per solve
        self.leapfrog_solves: list[int] = []
        self.leapfrog_calls: list[LeapfrogCall] = []
        self.bytes_written = 0

    @contextmanager
    def span(self, name: str):
        if not self.trace:
            self._open.append((name, None))
            try:
                yield
            finally:
                self._open.pop()
            return
        parent = self._open[-1][1] if self._open else None
        sid = len(self.spans)
        span = Span(sid, name, time.perf_counter(), float("nan"), parent)
        self.spans.append(span)
        self._open.append((name, sid))
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def _inside(self, name: str) -> bool:
        return any(n == name for n, _ in self._open)

    def count_solve(self, iterations: int) -> None:
        if self._inside("evolve.leapfrog"):
            self.leapfrog_solves.append(iterations)
        elif self._inside("assembly.spectral_bound"):
            self.power_solves.append(iterations)

    # -- reductions of the recorded spans -------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def totals(self) -> tuple[dict, dict]:
        """Summed duration and summed self time per span name."""
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for s, st in zip(self.spans, self.self_times()):
            total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
            own[s.name] = own.get(s.name, 0.0) + st
        return total, own

    def child_total(self, parent: str, child: str) -> float:
        """Summed duration of `child` spans opened directly inside `parent` ones."""
        return sum(s.end - s.start for s in self.spans
                   if s.name == child and s.parent is not None
                   and self.spans[s.parent].name == parent)

    def to_json(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "self": st}
                for s, st in zip(self.spans, self.self_times())]


# -- wrappers ---------------------------------------------------------------------

def _spanned(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _file_writer(rec: Recorder, name: str, fn, path_args):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            out = fn(*args, **kwargs)
        rec.bytes_written += sum(os.path.getsize(args[k]) for k in path_args)
        return out
    return wrapper


def _pcg(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(mass, b, *args, info=None, **kwargs):
        own = {} if info is None else info
        with rec.span("evolve.pcg_solve"):
            x = fn(mass, b, *args, info=own, **kwargs)
        rec.count_solve(own["iterations"])
        return x
    return wrapper


def _leapfrog(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(mass, wave, u0, dt, steps, *args, **kwargs):
        enter = time.perf_counter()
        with rec.span("evolve.leapfrog"):
            result = fn(mass, wave, u0, dt, steps, *args, **kwargs)
        rec.leapfrog_calls.append(LeapfrogCall(enter, time.perf_counter(), mass,
                                               wave, dt, steps, result))
        return result
    return wrapper


def _sites(rec: Recorder):
    """(owner, attribute, make_wrapper) for every site to patch."""
    out = []
    for owner, attr in LEAPFROG_SITES:
        out.append((owner, attr, lambda fn: _leapfrog(rec, fn)))
    for owner, attr in BOUND_SITES:
        out.append((owner, attr,
                    lambda fn: _spanned(rec, "assembly.spectral_bound", fn)))
    for owner, attr in PCG_SITES:
        out.append((owner, attr, lambda fn: _pcg(rec, fn)))
    if rec.trace:
        for name, sites in LAYER_SITES.items():
            for owner, attr in sites:
                out.append((owner, attr,
                            lambda fn, name=name: _spanned(rec, name, fn)))
        for name, (sites, path_args) in FILE_WRITERS.items():
            for owner, attr in sites:
                out.append((owner, attr, lambda fn, name=name, p=path_args:
                            _file_writer(rec, name, fn, p)))
    return out


@contextmanager
def installed(rec: Recorder):
    """Patch the counting set (and, if `rec.trace`, the tracing set) for a block."""
    saved = []
    try:
        for owner, attr, make in _sites(rec):
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
        yield rec
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
