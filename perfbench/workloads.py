"""The benchmark's workloads: fixture builder and program settings.

Sizes are the paper's settings scaled down so that one instance takes
about a second on a 2-core machine and tens of runs of every workload fit
in an hour; one instance at paper resolution (9-10k vertices) takes 90-130
s there. Each scaled setting keeps the ratio that decides where the time
goes:

- Generation meshes are three icosphere levels (64x) coarser than the
  paper's. p2p_train remeshes 162-vertex shapes (paper 10242) into 142-158
  vertices (paper 9000-10000: the same share) and scans 32x32 rays (paper
  256x256: the same rays per face). f2f_remesh_heavy decimates 642-vertex
  shapes (paper 40962) into the same 142-158, about 4:1 as in the paper.
  Projection stays most of a P2P instance and decimation over 40% of an
  F2F one, as at paper resolution. In traced runs (seeds 1-3, 2-vCPU
  x86 guest) ``project_points_to_surface`` self time was 0.88-0.89 of
  p2p_train's generation time and ``decimate.decimate`` self time
  0.43-0.44 of f2f_remesh_heavy's.
- evaluate_mixed keeps 2562-vertex targets, a quarter of the paper's:
  Dijkstra still dominates (``geodesic_distance_fields`` was 0.94 of the
  time in ``shapecorr evaluate`` in the same traced runs), and a full
  source costs about 3x a partial one. The largest distance matrix, 50 MB,
  is 37% of the child's 134 MB peak RSS; the generation children, which
  build none, peak at 70 MB.
- Instances this short give a 30 s run dozens of samples.

Generation reads no remesh cache (``use_precompute_remeshing=false``; it
still writes one). A remesh target is drawn per instance from the count
range; at paper scale 1001 targets make a repeat, and so a cache hit,
rare. Scaled to 17 targets, repeats would turn a third of the instances
into cache hits that no paper-scale run sees.
"""

from __future__ import annotations

from dataclasses import dataclass

import fixtures


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "generate" or "evaluate"
    why: str
    fixture: object  # seed -> fixture directory
    config: tuple = ()  # GenerationConfig overrides as (key, value) strings
    pass_size: int = 0  # instances generated per pass


WORKLOADS = {w.name: w for w in (
    Workload(
        "p2p_train", "generate",
        "P2P train generation; train balancing repeats 2-3 hop pairs, so "
        "the scanner, the overlap sampler and the per-pair memo all work",
        fixtures.p2p_train_fixture,
        (("setting", "partial_partial"), ("split", "train"),
         ("count_range", "142-158"), ("resolution", "32x32"),
         ("use_precompute_remeshing", "false")), 6),
    Workload(
        "f2f_remesh_heavy", "generate",
        "F2F val generation with 4:1 decimation over distinct two-hop "
        "pairs: decimation-heavy, no scanner, every memo lookup misses",
        fixtures.f2f_heavy_fixture,
        (("setting", "full_full"), ("split", "val"),
         ("count_range", "142-158"), ("use_precompute_remeshing", "false")),
        3),
    Workload(
        "evaluate_mixed", "evaluate",
        "shapecorr evaluate over seeded F2F, P2F and P2P instances and "
        "predictions: only metrics, Dijkstra and file reads work",
        fixtures.eval_fixture),
)}


def generation_config(workload, seed):
    """Config mapping for a generation workload; the seed is also the
    program's global seed."""
    mapping = dict(workload.config)
    mapping["global_seed"] = str(seed)
    return mapping
