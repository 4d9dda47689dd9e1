"""Per-layer metrics: what the tracer hooks count and how each metric is
derived from spans.

Loop metrics are per measured instance (generated or evaluated): the run's
total divided by its instance count, except where a metric says otherwise.
Set-up metrics are per set-up (one per pass). "computed" marks a value
derived from other counts, not measured directly. ``moves`` records which
end-to-end metric the layer metric should move, and on which workload.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

GEN = "p2p_train, f2f_remesh_heavy"
EVAL = "evaluate_mixed"

# methods traced as spans / counted without a span (per-point queries)
METHODS = ("spatial.TriangleBVH.__init__", "spatial.TriangleBVH.first_hits",
           "decimate.RemeshCache.load", "scanning.RaycastCache.load")
COUNTED = ("spatial.TriangleBVH.nearest_point",)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _memo_before(t, args, kwargs):
    net = _arg(args, kwargs, 0, "net")
    memo = getattr(net, "_pair_cache", None)
    key = (_arg(args, kwargs, 1, "a"), _arg(args, kwargs, 2, "b"))
    return None if memo is None else key in memo


def _memo_after(t, args, kwargs, result, hit):
    if hit is None:
        t.add("network.memo_unknown")
    elif hit:
        t.add("network.pair_memo_hits")


def _cache(prefix):
    def after(t, args, kwargs, result, pre):
        t.add(prefix + ("cache_hits" if result is not None else
                        "cache_misses"))
    return after


def _io(key, index, name):
    def after(t, args, kwargs, result, pre):
        t.add(key, _size(_arg(args, kwargs, index, name)))
    return after


def _extract(t, args, kwargs, result, pre):
    t.add("scanning.hit_faces", len(_arg(args, kwargs, 1, "hit_faces")))
    t.add("scanning.kept_faces", len(result.parent_face))


def _dijkstra(t, args, kwargs, result, pre):
    sources = len(_arg(args, kwargs, 1, "sources"))
    n = _arg(args, kwargs, 0, "mesh").n_vertices
    t.add("geometry.dijkstra_sources", sources)
    t.peak("geometry.dijkstra_matrix_mb", sources * n * 8 / 1e6)


BEFORE = {"network.correspondence_between": _memo_before}
AFTER = {
    "network.correspondence_between": _memo_after,
    "decimate.decimate": lambda t, a, k, r, p: t.add(
        "decimate.collapses",
        _arg(a, k, 0, "mesh").n_vertices - r[0].n_vertices),
    "decimate.RemeshCache.load": _cache("decimate."),
    "scanning.RaycastCache.load": _cache("scanning."),
    "geometry.project_points_to_surface": lambda t, a, k, r, p: t.add(
        "geometry.project_points", len(_arg(a, k, 0, "points"))),
    "geometry.geodesic_distance_fields": _dijkstra,
    "scanning.extract_partial": _extract,
    "scanning.generate_partial_pair": lambda t, a, k, r, p: t.add(
        "scanning.accepted", int(bool(r[2].within_range))),
    "meshio.load_mesh": _io("io.bytes_read", 0, "path"),
    "corrio.load_correspondence": _io("io.bytes_read", 0, "path"),
    "meshio.save_mesh": _io("io.bytes_written", 1, "path"),
    "corrio.save_correspondence": _io("io.bytes_written", 1, "path"),
}


class View:
    """One phase of a finished trace, normalized per unit of that phase."""

    def __init__(self, tracer, phase, units, extra):
        self.t, self.phase = tracer, phase
        self.units, self.extra = units, extra

    def per(self, value):
        return value / self.units if self.units else 0.0

    def calls(self, name):
        return self.t.calls(self.phase, name)

    def total(self, name):
        return self.t.total(self.phase, name)

    def self_time(self, name):
        return self.t.self_time(self.phase, name)

    def count(self, key):
        return self.t.counts.get((self.phase, key), 0.0)

    def peak(self, key):
        return self.t.peaks.get((self.phase, key), 0.0)

    def self_of(self, *prefixes):
        return sum(s for n, s in self.t.self_times(self.phase).items()
                   if n.startswith(prefixes))


def _ratio(a, b):
    return a / b if b else 0.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    phase: str  # "loop" or "setup"
    value: object  # View -> float
    sources: tuple  # traced names the value needs
    moves: str
    computed: bool = False


def _m(name, unit, better, value, sources, moves, phase="loop",
       computed=False):
    return Metric(name, unit, better, phase, value, tuple(sources), moves,
                  computed)


W, RG, CB = "pipeline.write_instance", "pipeline.run_generation", \
    "network.correspondence_between"
PROJ, DEC = "geometry.project_points_to_surface", "decimate.decimate"
BVH, FH = "spatial.TriangleBVH.__init__", "spatial.TriangleBVH.first_hits"
CAST, EXT = "scanning.cast_scan", "scanning.extract_partial"
PAIR, CAM = "scanning.generate_partial_pair", \
    "scanning.sample_constrained_pair"
EV, GE = "metrics.evaluate_instance", "metrics.geodesic_error"
DIJ = "geometry.geodesic_distance_fields"
LM, SM = "meshio.load_mesh", "meshio.save_mesh"
LC, SC = "corrio.load_correspondence", "corrio.save_correspondence"

METRICS = [
    _m("pipeline.write_s", "s", "lower", lambda v: v.per(v.total(W)), [W],
       f"instance_s on {GEN}"),
    _m("pipeline.unattributed_s", "s", "lower",
       lambda v: v.per(v.self_of("pipeline.", "cli.")), [RG],
       f"instance_s on {GEN}; self time of the entry layers (pipeline, "
       "cli) that no named layer claims"),
    _m("network.build_s", "s", "lower",
       lambda v: v.per(v.total("network.build_network")),
       ["network.build_network"], f"setup_s on {GEN}", phase="setup"),
    _m("network.pair_lookups", "count", "lower", lambda v: v.per(v.calls(CB)),
       [CB], "instance_s on p2p_train (memo hits); misses on "
       "f2f_remesh_heavy"),
    _m("network.pair_memo_hits", "count", "higher",
       lambda v: v.per(v.count("network.pair_memo_hits")), [CB],
       "instance_s on p2p_train; 0 on f2f_remesh_heavy"),
    _m("network.compose_calls", "count", "lower",
       lambda v: v.per(v.calls("network.compose")), ["network.compose"],
       f"instance_s on {GEN}"),
    _m("network.compose_self_s", "s", "lower",
       lambda v: v.per(v.self_time("network.compose")), ["network.compose"],
       f"instance_s on {GEN}"),
    _m("decimate.calls", "count", "lower", lambda v: v.per(v.calls(DEC)),
       [DEC], f"instance_s, peak_rss_mb on {GEN}"),
    _m("decimate.collapses", "count", "lower",
       lambda v: v.per(v.count("decimate.collapses")), [DEC],
       "instance_s, peak_rss_mb mostly on f2f_remesh_heavy; input minus "
       "output vertices", computed=True),
    _m("decimate.decimate_s", "s", "lower", lambda v: v.per(v.total(DEC)),
       [DEC], "instance_s mostly on f2f_remesh_heavy"),
    _m("decimate.backproject_s", "s", "lower",
       lambda v: v.per(v.total("decimate.back_correspondence")),
       ["decimate.back_correspondence"], f"instance_s on {GEN}"),
    _m("decimate.cache_hits", "count", "higher",
       lambda v: v.per(v.count("decimate.cache_hits")),
       ["decimate.RemeshCache.load"], f"instance_s on {GEN}; 0 there, as "
       "they read no remesh cache"),
    _m("decimate.cache_misses", "count", "lower",
       lambda v: v.per(v.count("decimate.cache_misses")),
       ["decimate.RemeshCache.load"], f"instance_s on {GEN}; every load "
       "there, as they read no remesh cache"),
    _m("geometry.project_calls", "count", "lower",
       lambda v: v.per(v.calls(PROJ)), [PROJ],
       f"instance_s on {GEN}; none on {EVAL}"),
    _m("geometry.project_points", "count", "lower",
       lambda v: v.per(v.count("geometry.project_points")), [PROJ],
       f"instance_s on {GEN}; none on {EVAL}"),
    _m("geometry.project_s", "s", "lower",
       lambda v: v.per(v.self_time(PROJ)), [PROJ],
       f"instance_s on {GEN}; self time, per-point nearest queries "
       "included, BVH builds excluded"),
    _m("geometry.project_us_per_point", "us", "lower",
       lambda v: 1e6 * _ratio(v.self_time(PROJ),
                              v.count("geometry.project_points")),
       [PROJ], f"instance_s on {GEN}", computed=True),
    _m("geometry.components_s", "s", "lower",
       lambda v: v.per(v.total("geometry.connected_components")),
       ["geometry.connected_components"], "instance_s on p2p_train"),
    _m("geometry.dijkstra_s", "s", "lower", lambda v: v.per(v.total(DIJ)),
       [DIJ], f"instance_s, peak_rss_mb on {EVAL} only"),
    _m("geometry.dijkstra_sources", "count", "lower",
       lambda v: v.per(v.count("geometry.dijkstra_sources")), [DIJ],
       f"instance_s, peak_rss_mb on {EVAL} only"),
    _m("geometry.dijkstra_matrix_mb", "MB", "lower",
       lambda v: v.peak("geometry.dijkstra_matrix_mb"), [DIJ],
       f"peak_rss_mb on {EVAL}; largest call, sources x n x 8 B",
       computed=True),
    _m("spatial.bvh_builds", "count", "lower", lambda v: v.per(v.calls(BVH)),
       [BVH], f"instance_s on {GEN}"),
    _m("spatial.bvh_build_s", "s", "lower", lambda v: v.per(v.total(BVH)),
       [BVH], f"instance_s on {GEN}"),
    _m("spatial.nearest_queries", "count", "lower",
       lambda v: v.per(v.calls(COUNTED[0])), [COUNTED[0]],
       f"instance_s on {GEN}"),
    _m("spatial.first_hits_s", "s", "lower", lambda v: v.per(v.total(FH)),
       [FH], "instance_s on p2p_train only"),
    _m("spatial.rays_cast", "count", "lower",
       lambda v: v.per(v.calls(FH) * v.extra.get("rays_per_scan", 0)), [FH],
       "instance_s on p2p_train only; scans x w x h", computed=True),
    _m("scanning.scans", "count", "lower", lambda v: v.per(v.calls(CAST)),
       [CAST], "instance_s on p2p_train; 0 on f2f_remesh_heavy"),
    _m("scanning.cast_s", "s", "lower", lambda v: v.per(v.total(CAST)),
       [CAST], "instance_s on p2p_train; 0 on f2f_remesh_heavy"),
    _m("scanning.extract_s", "s", "lower", lambda v: v.per(v.total(EXT)),
       [EXT], "instance_s on p2p_train; 0 on f2f_remesh_heavy"),
    _m("scanning.overlap_attempts", "count", "lower",
       lambda v: v.per(v.calls(CAM)), [CAM],
       "instance_s on p2p_train; 0 on f2f_remesh_heavy"),
    _m("scanning.overlap_accept_ratio", "ratio", "higher",
       lambda v: _ratio(v.count("scanning.accepted"), v.calls(CAM)),
       [PAIR, CAM], "instance_s on p2p_train; accepted pairs / attempts",
       computed=True),
    _m("scanning.kept_face_frac", "ratio", "higher",
       lambda v: _ratio(v.count("scanning.kept_faces"),
                        v.count("scanning.hit_faces")), [EXT],
       "instance_s on p2p_train; kept faces / hit faces", computed=True),
    _m("scanning.cache_hits", "count", "higher",
       lambda v: v.per(v.count("scanning.cache_hits")),
       ["scanning.RaycastCache.load"], "instance_s on p2p_train"),
    _m("scanning.cache_misses", "count", "lower",
       lambda v: v.per(v.count("scanning.cache_misses")),
       ["scanning.RaycastCache.load"], "instance_s on p2p_train"),
    _m("metrics.evaluate_s", "s", "lower", lambda v: v.per(v.total(EV)),
       [EV], f"instance_s on {EVAL}"),
    _m("metrics.geodesic_error_s", "s", "lower", lambda v: v.per(v.total(GE)),
       [GE], f"instance_s on {EVAL}"),
    _m("metrics.error_curve_s", "s", "lower",
       lambda v: v.per(v.total("metrics.error_curve")),
       ["metrics.error_curve"], f"instance_s on {EVAL}"),
    _m("metrics.instances_evaluated", "count", "higher",
       lambda v: v.calls(EV), [EV], f"instance_s on {EVAL}; run total"),
    _m("metrics.instances_skipped", "count", "lower",
       lambda v: v.extra.get("skipped", 0), [EV],
       f"instance_s on {EVAL}; run total"),
    _m("meshio.load_s", "s", "lower", lambda v: v.per(v.total(LM)), [LM],
       f"instance_s on {EVAL}"),
    _m("meshio.save_s", "s", "lower", lambda v: v.per(v.total(SM)), [SM],
       f"instance_s on {GEN}"),
    _m("corrio.load_s", "s", "lower", lambda v: v.per(v.total(LC)), [LC],
       f"instance_s on {EVAL}"),
    _m("corrio.save_s", "s", "lower", lambda v: v.per(v.total(SC)), [SC],
       f"instance_s on {GEN}"),
    _m("io.bytes_read", "B", "lower",
       lambda v: v.per(v.count("io.bytes_read")), [LM, LC],
       f"instance_s on {EVAL}; meshio and corrio reads"),
    _m("io.bytes_written", "B", "lower",
       lambda v: v.per(v.count("io.bytes_written")), [SM, SC],
       f"instance_s on {GEN}; meshio and corrio writes"),
    _m("setup.meshio.load_s", "s", "lower", lambda v: v.per(v.total(LM)),
       [LM], f"setup_s on {GEN}", phase="setup"),
    _m("setup.corrio.load_s", "s", "lower", lambda v: v.per(v.total(LC)),
       [LC], f"setup_s on {GEN}", phase="setup"),
    _m("setup.io.bytes_read", "B", "lower",
       lambda v: v.per(v.count("io.bytes_read")), [LM, LC],
       "setup_s on every workload", phase="setup"),
    _m("pairs.enumerate_s", "s", "lower",
       lambda v: v.per(v.total("pairs.enumerate_pairs")),
       ["pairs.enumerate_pairs"], f"setup_s on {GEN}", phase="setup"),
    _m("trace.instance_s", "s", "lower",
       lambda v: v.extra.get("instance_s", 0.0), [],
       "median instance seconds with tracing on; minus the untraced "
       "instance_s it is the tracing overhead"),
]


def compute(tracer, units, setups, extra):
    """{name: (value, unit, absent)} for every metric in METRICS."""
    views = {"loop": View(tracer, "loop", units, extra),
             "setup": View(tracer, "setup", setups, extra)}
    out = {}
    for m in METRICS:
        absent = any(s not in tracer.wrapped for s in m.sources) or (
            m.name == "network.pair_memo_hits"
            and views["loop"].count("network.memo_unknown") > 0)
        value = 0.0 if absent else float(m.value(views[m.phase]))
        out[m.name] = (value, m.unit, absent)
    return out
