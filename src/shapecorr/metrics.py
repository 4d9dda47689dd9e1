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
from .meshes import UNMATCHED
# a vertex map file: one target vertex index per line, -1 = unmatched
from .textio import load_int_column as load_prediction

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


def geodesic_error(pred, gt, target_mesh, target_full_area, setting):
    """Normalized per-source-vertex geodesic errors.

    NaN marks vertices excluded from the curve denominator (gt-unmatched in
    F2F/P2F; both-unmatched in P2P); +inf marks overlap mismatches.
    """
    pred = _as_pred(pred, len(gt))
    if target_full_area <= 0:
        raise ValueError("target area must be positive")
    gt_vertex = geo.snap_correspondence_to_vertices(gt, target_mesh)
    if pred.max(initial=UNMATCHED) >= target_mesh.n_vertices:
        raise ValueError("prediction references invalid target vertex")
    gm = gt_vertex != UNMATCHED
    pm = pred != UNMATCHED
    errors = np.full(len(gt), np.nan)
    if setting == "partial_partial":
        errors[gm != pm] = np.inf  # matched on one side only
    else:
        errors[gm & ~pm] = np.inf
    both = gm & pm
    if both.any():
        sources = np.unique(gt_vertex[both])
        dist = geo.geodesic_distance_fields(target_mesh, sources)
        row = np.searchsorted(sources, gt_vertex[both])
        d = dist[row, pred[both]]
        errors[both] = d / np.sqrt(target_full_area)
    return errors


def error_curve(errors, thresholds=None):
    """Cumulative fraction of in-denominator vertices with error <= t.

    +inf never counts, so wrong overlap predictions cap the curve below 1.
    An empty denominator yields a constant-1 curve (nothing to get wrong).
    """
    thresholds = np.asarray(DEFAULT_THRESHOLDS if thresholds is None
                            else thresholds, dtype=np.float64)
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
    if len(thresholds) < 2:
        raise ValueError("need at least two curve samples")
    tau_max = thresholds[-1] - thresholds[0]
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
    pred = _as_pred(pred, len(gt))
    errors = geodesic_error(pred, gt, shape_y, target_full_area, setting)
    th, fr = error_curve(errors, thresholds)
    gm = gt.matched
    pm = pred != UNMATCHED
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
    directory.mkdir(parents=True, exist_ok=True)
    lines = [
        f"setting={report.setting}",
        f"auc={report.auc!r}",
        f"n_denominator={report.n_denominator}",
        f"n_excluded={report.n_excluded}",
        f"n_inf_pred_unmatched={report.n_inf_pred_unmatched}",
        f"n_inf_gt_unmatched={report.n_inf_gt_unmatched}",
    ]
    if report.iou is not None:
        lines.append(f"iou={report.iou!r}")
        lines.append(f"f1={report.f1!r}")
    if report.lr_accuracy is not None:
        lines.append(f"lr_accuracy={report.lr_accuracy!r}")
    (directory / "report.txt").write_text("\n".join(lines) + "\n")
    curve = "\n".join(f"{t:.6f} {f:.9f}"
                      for t, f in zip(report.thresholds, report.fractions))
    (directory / "curve.txt").write_text(curve + "\n")


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


def write_summary(summary, path):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}"
             for k, v in summary.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def gt_as_prediction(gt, target_mesh):
    """Dominant-weight vertex snap of the ground truth; the evaluation
    ceiling."""
    return geo.snap_correspondence_to_vertices(gt, target_mesh)
