"""Evaluation protocol for predicted matchings.

Per-vertex geodesic error normalized by the square root of the full target
shape's area (for partial targets: of their full counterpart), cumulative
error curves and AUC, overlap IoU / F1 for the partial-partial setting, and
left/right label accuracy. Predictions are vertex-to-vertex maps with -1
for "no match".
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry as geo
from .config import SETTINGS
from .meshes import UNMATCHED
# a vertex map file: one target vertex index per line, -1 = unmatched
from .textio import load_int_column as load_prediction
from .textio import write_atomic, write_key_values

DEFAULT_THRESHOLDS = np.round(np.arange(0, 1001) * 0.001, 3)


@dataclass
class EvalReport:
    setting: str
    errors: np.ndarray  # per source vertex; NaN = excluded, +inf allowed
    thresholds: np.ndarray
    fractions: np.ndarray
    auc: float  # x100
    iou: float | None  # x100, P2P only
    f1: float | None  # x100, P2P only
    lr_accuracy: float | None  # x100, only when labels supplied
    n_denominator: int
    n_excluded: int
    n_inf_pred_unmatched: int  # gt matched, prediction missing
    n_inf_gt_unmatched: int  # prediction present, gt missing (P2P)


def _as_pred(pred, n):
    pred = np.asarray(pred, dtype=np.int64)
    if pred.shape != (n,):
        raise ValueError(f"prediction has shape {pred.shape}, expected ({n},)")
    if (pred < UNMATCHED).any():
        raise ValueError("prediction index below -1")
    return pred


# Dijkstra runs over at most this many sources at once: the peak distance
# matrix is SOURCE_CHUNK * n * 8 bytes. Sources are sorted by reach, so a
# chunk's limit is near what each of its sources needs; on the
# evaluate_mixed fixtures chunks of 16-32 searched least in all.
SOURCE_CHUNK = 32

# A chunk's first search stops at _REACH times the longest chord of its
# pairs. The graph distance of an evaluate_mixed pair was 1.18 times its
# chord at the median and 1.77 at most (5142 pairs), and 1.5-1.8 searched
# least; pairs beyond it, on a folded surface, get one unlimited re-run.
_REACH = 1.5


def check_target(gt, target_mesh, target_full_area):
    """Raise ``ValueError`` unless the ground truth names only faces of the
    target mesh and the full target area is positive and finite (a NaN area
    would exclude every vertex, an infinite one score every vertex 0)."""
    if not 0 < target_full_area < np.inf:
        raise ValueError(f"target area {target_full_area!r} is not positive "
                         "and finite")
    if gt.faces.max(initial=UNMATCHED) >= target_mesh.n_faces:
        raise ValueError("ground truth references invalid target face")


def check_setting(setting):
    """Raise ``ValueError`` unless ``setting`` is one of ``SETTINGS``: every
    other name would be scored as F2F without a word."""
    if setting not in SETTINGS:
        raise ValueError(f"setting {setting!r} not in {SETTINGS}")


def geodesic_error(pred, gt, target_mesh, target_full_area, setting):
    """Normalized per-source-vertex geodesic errors.

    NaN marks vertices excluded from the curve denominator (gt-unmatched in
    F2F/P2F; both-unmatched in P2P); +inf marks overlap mismatches.

    Only the scored (gt vertex, prediction) pairs are computed, bit for bit
    as one unlimited Dijkstra over every source would give them. A pair
    whose prediction is its gt vertex scores 0.0 without a search, which is
    the distance Dijkstra gives a source. The other gt vertices are the
    sources. Each is sorted by the longest chord ``|v[g] - v[p]|`` of its
    pairs, and runs in a chunk of ``SOURCE_CHUNK`` whose search stops at
    ``_REACH`` times the chunk's longest chord. Weights are non-negative
    and float addition is monotone, so a limited search gives every vertex
    within the limit the value of an unlimited one, and every other vertex
    ``inf``. Only the sources left with an ``inf`` pair run again, without
    a limit. A source's row does not depend on which other sources share
    its run, and the peak distance matrix is ``SOURCE_CHUNK * n * 8`` bytes
    for an n-vertex target.

    The search always runs from the gt vertex. Running from the prediction
    would need fewer searches when predictions repeat, but it adds the same
    edges in the reverse order, and float sums are not bit-equal then.
    """
    pred = _as_pred(pred, len(gt))
    check_target(gt, target_mesh, target_full_area)
    check_setting(setting)
    if pred.max(initial=UNMATCHED) >= target_mesh.n_vertices:
        raise ValueError("prediction references invalid target vertex")
    gt_vertex = geo.snap_correspondence_to_vertices(gt, target_mesh)
    gm = gt_vertex != UNMATCHED
    pm = pred != UNMATCHED
    errors = np.full(len(gt), np.nan)
    if setting == "partial_partial":
        errors[gm != pm] = np.inf  # matched on one side only
    else:
        errors[gm & ~pm] = np.inf
    both = gm & pm
    src, dst = gt_vertex[both], pred[both]
    d = np.zeros(len(src))
    todo = np.flatnonzero(src != dst)
    src, dst = src[todo], dst[todo]
    v = target_mesh.vertices
    chord = np.linalg.norm(v[src] - v[dst], axis=1)
    sources, row = np.unique(src, return_inverse=True)
    reach = np.zeros(len(sources))
    np.maximum.at(reach, row, chord)
    order = np.argsort(reach, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    dist = _pair_distances(target_mesh, sources[order], rank[row], dst,
                           _REACH * reach[order])
    miss = np.isinf(dist)
    if miss.any():
        again, row = np.unique(src[miss], return_inverse=True)
        dist[miss] = _pair_distances(target_mesh, again, row, dst[miss],
                                     np.full(len(again), np.inf))
    d[todo] = dist
    errors[both] = d / np.sqrt(target_full_area)
    return errors


def _pair_distances(mesh, sources, row, dst, limit):
    """Distance from ``sources[row[i]]`` to ``dst[i]`` for every pair. The
    sources run ``SOURCE_CHUNK`` at a time; a chunk's search stops at the
    largest ``limit`` of its sources."""
    out = np.empty(len(row))
    by_row = np.argsort(row, kind="stable")
    cut = np.searchsorted(row[by_row],
                          np.arange(0, len(sources) + SOURCE_CHUNK,
                                    SOURCE_CHUNK))
    for c, lo in enumerate(range(0, len(sources), SOURCE_CHUNK)):
        chunk = slice(lo, lo + SOURCE_CHUNK)
        fields = geo.geodesic_distance_fields(mesh, sources[chunk],
                                              limit[chunk].max())
        k = by_row[cut[c]:cut[c + 1]]
        out[k] = fields[row[k] - lo, dst[k]]
    return out


def error_curve(errors, thresholds=None):
    """Cumulative fraction of in-denominator vertices with error <= t.

    +inf never counts, so wrong overlap predictions cap the curve below 1.
    An empty denominator yields a constant-1 curve (nothing to get wrong).
    """
    thresholds = np.asarray(DEFAULT_THRESHOLDS if thresholds is None
                            else thresholds, dtype=np.float64)
    if not np.isfinite(thresholds).all():
        raise ValueError("thresholds must be finite")
    if len(thresholds) == 0 or (np.diff(thresholds) < 0).any():
        raise ValueError("thresholds must be non-empty and ascending")
    errors = np.asarray(errors, dtype=np.float64)
    denom = ~np.isnan(errors)
    if not denom.any():
        return thresholds, np.ones_like(thresholds)
    vals = np.sort(errors[denom])
    counts = np.searchsorted(vals, thresholds, side="right")
    return thresholds, counts / denom.sum()


def auc(thresholds, fractions):
    """Normalized area under the cumulative curve, x100."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    fractions = np.asarray(fractions, dtype=np.float64)
    if not np.isfinite(thresholds).all():
        raise ValueError("thresholds must be finite")
    if len(thresholds) < 2:
        raise ValueError("need at least two curve samples")
    tau_max = thresholds[-1] - thresholds[0]
    if not tau_max > 0:
        raise ValueError("thresholds must span a positive range")
    return float(np.trapezoid(fractions, thresholds) / tau_max * 100.0)


def iou(pred_mask, gt_mask):
    p = np.asarray(pred_mask, dtype=bool)
    g = np.asarray(gt_mask, dtype=bool)
    if p.shape != g.shape:
        raise ValueError("mask length mismatch")
    union = (p | g).sum()
    if union == 0:
        return 1.0  # both agree on "no overlap"
    return float((p & g).sum() / union)


def f1(pred_mask, gt_mask):
    p = np.asarray(pred_mask, dtype=bool)
    g = np.asarray(gt_mask, dtype=bool)
    if p.shape != g.shape:
        raise ValueError("mask length mismatch")
    if not p.any() and not g.any():
        return 1.0
    inter = (p & g).sum()
    precision = inter / p.sum() if p.any() else 0.0
    recall = inter / g.sum() if g.any() else 0.0
    if precision + recall == 0:
        return 0.0
    return float(2 * precision * recall / (precision + recall))


def lr_accuracy(pred_labels, gt_labels, gt_matched, pred_matched, setting,
                sign_invariant=False):
    """Fraction of source vertices whose propagated label matches ground
    truth. In P2P, overlap mismatches count as wrong and the denominator is
    the union of gt- and prediction-matched vertices."""
    pred_labels = np.asarray(pred_labels)
    gt_labels = np.asarray(gt_labels)
    gm = np.asarray(gt_matched, dtype=bool)
    pm = np.asarray(pred_matched, dtype=bool)
    if not (len(pred_labels) == len(gt_labels) == len(gm) == len(pm)):
        raise ValueError("length mismatch")
    agree = (pred_labels == gt_labels) & gm & pm
    if setting == "partial_partial":
        denom = (gm | pm).sum()
        agree = agree & ~(gm != pm)  # mismatched overlap scores 0
    else:
        denom = len(gt_labels)
    if denom == 0:
        return 1.0
    acc = float(agree.sum() / denom)
    return max(acc, 1.0 - acc) if sign_invariant else acc


def evaluate_instance(shape_y, gt, pred, setting, target_full_area,
                      thresholds=None, pred_labels=None, gt_labels=None,
                      sign_invariant=False):
    """Full report for one instance.

    shape_y/gt are the emitted target mesh and ground truth; pred is a
    per-source-vertex target vertex map. Labels are optional.
    """
    errors = geodesic_error(pred, gt, shape_y, target_full_area, setting)
    th, fr = error_curve(errors, thresholds)
    gm = gt.matched
    pm = np.asarray(pred) != UNMATCHED
    iou_val = f1_val = None
    if setting == "partial_partial":
        iou_val = iou(pm, gm) * 100.0
        f1_val = f1(pm, gm) * 100.0
    lr = None
    if pred_labels is not None and gt_labels is not None:
        lr = lr_accuracy(pred_labels, gt_labels, gm, pm, setting,
                         sign_invariant) * 100.0
    return EvalReport(
        setting=setting, errors=errors, thresholds=th, fractions=fr,
        auc=auc(th, fr), iou=iou_val, f1=f1_val, lr_accuracy=lr,
        n_denominator=int((~np.isnan(errors)).sum()),
        n_excluded=int(np.isnan(errors).sum()),
        n_inf_pred_unmatched=int((gm & ~pm).sum()),
        n_inf_gt_unmatched=int((~gm & pm).sum()
                               if setting == "partial_partial" else 0))


# --- report files ---

def write_report(report, directory):
    """Flat key=value record plus a two-column curve export for plotting."""
    directory = Path(directory)
    keys = ("setting", "auc", "n_denominator", "n_excluded",
            "n_inf_pred_unmatched", "n_inf_gt_unmatched", "iou", "f1",
            "lr_accuracy")
    record = {k: getattr(report, k) for k in keys}
    write_key_values(directory / "report.txt",
                     {k: v for k, v in record.items() if v is not None})
    curve = "\n".join(f"{t:.6f} {f:.9f}"
                      for t, f in zip(report.thresholds, report.fractions))
    write_atomic(directory / "curve.txt", curve + "\n")


def aggregate_reports(reports):
    """Mean AUC / mIoU / F1 / mean lr-accuracy over instance reports
    (all x100, matching the usual reporting units)."""
    if not reports:
        raise ValueError("no reports to aggregate")
    out = {"n_instances": len(reports),
           "mean_auc": float(np.mean([r.auc for r in reports]))}
    ious = [r.iou for r in reports if r.iou is not None]
    if ious:
        out["mean_iou"] = float(np.mean(ious))
        out["mean_f1"] = float(np.mean([r.f1 for r in reports
                                        if r.f1 is not None]))
    lrs = [r.lr_accuracy for r in reports if r.lr_accuracy is not None]
    if lrs:
        out["mean_lr_accuracy"] = float(np.mean(lrs))
    return out
