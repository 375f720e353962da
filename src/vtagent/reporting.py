"""Scoring of trajectory logs and report emission (text, CSV, JSONL, SVG)."""

from __future__ import annotations

import csv
import json
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

from .jsonl import read_records, replaced, write_lines
from .data_model import DatasetManifest
from .errors import MalformedRecord
from .grammar import KeyframeSet
from .metrics import MetricReport, SampleScore, anls, exact_accuracy, hit


def score_records(manifest: DatasetManifest, records: Sequence[dict]) -> list[SampleScore]:
    """Score run_batch records against manifest golds. Errored records score 0;
    hit is defined only when the sample has pseudo keyframes and the model
    chose a selection: an episode whose anchoring fell back (its record's
    `turn1_raw` is empty) chose none."""
    by_id = {s.sample_id: s for s in manifest.samples}
    scores: list[SampleScore] = []
    for rec in records:
        sample = by_id.get(rec["sample_id"])
        if sample is None:
            continue
        if "error" in rec:
            scores.append(SampleScore(sample_id=sample.sample_id, accuracy=0, anls=0.0))
            continue
        pred = rec["answer"]
        acc = exact_accuracy(pred, sample.gold_answers)
        score_anls = anls(pred, sample.gold_answers)
        hit_val: Optional[bool] = None
        ids = rec["keyframe_ids"]
        if sample.pseudo_keyframes and ids and rec.get("turn1_raw") != "":
            hit_val = hit(KeyframeSet(ids=tuple(ids)), sample.pseudo_keyframes)
        scores.append(SampleScore(sample_id=sample.sample_id, accuracy=acc,
                                  anls=score_anls, hit=hit_val))
    return scores


def write_score_log(scores: Sequence[SampleScore], report: MetricReport,
                    path: str | Path) -> None:
    """Per-sample records plus one trailing summary record, full precision,
    replacing path whole."""
    summary = {"summary": True, "split": report.split_tag, "n": report.n,
               "mean_accuracy": report.mean_accuracy, "mean_anls": report.mean_anls,
               "hit_rate": report.hit_rate}
    records = chain(({"sample_id": s.sample_id, "accuracy": s.accuracy, "anls": s.anls,
                      "hit": s.hit} for s in scores), (summary,))
    write_lines(path, (json.dumps(r, ensure_ascii=False) for r in records))


def _score_fault(obj: dict) -> Optional[str]:
    """What a per-sample score record lacks, or None: a string sample_id, an
    accuracy of the int 0 or 1, a finite anls in [0, 1] and a hit of true,
    false or null; a bool is no accuracy or anls."""
    if not isinstance(obj.get("sample_id"), str):
        return "no string 'sample_id'"
    if type(obj.get("accuracy")) is not int or obj["accuracy"] not in (0, 1):
        return "no 'accuracy' of 0 or 1"
    anls_val = obj.get("anls")
    if type(anls_val) not in (int, float) or not 0 <= anls_val <= 1:  # nan fails the range
        return "no finite 'anls' in [0, 1]"
    if "hit" not in obj or not (obj["hit"] is None or type(obj["hit"]) is bool):
        return "no 'hit' of true, false or null"
    return None


def read_score_log(path: str | Path) -> list[SampleScore]:
    """Per-sample scores of a score log, which write_score_log writes whole,
    read with read_records: the file is never written, so `report` leaves
    its inputs as they are. The summary record is skipped; a record that
    lacks what scoring reads (_score_fault), or repeats an earlier record's
    sample_id, is named by its line."""
    scores: list[SampleScore] = []
    seen: set[str] = set()
    for line_no, obj in read_records(path):
        if obj.get("summary"):
            continue
        fault = _score_fault(obj) or (
            f"repeated sample_id {obj['sample_id']!r}" if obj["sample_id"] in seen else None)
        if fault:
            raise MalformedRecord(line_no, f"bad score record in {path}: {fault}")
        seen.add(obj["sample_id"])
        scores.append(SampleScore(sample_id=obj["sample_id"], accuracy=obj["accuracy"],
                                  anls=float(obj["anls"]), hit=obj["hit"]))
    return scores


def side_by_side_table(reports: dict[str, MetricReport]) -> str:
    """Two or more systems' aggregates with a delta column against the first."""
    names = list(reports)
    lines = [f"{'system':<24} {'n':>6} {'ACC.':>8} {'ANLS':>8} {'dACC':>8} {'dANLS':>8}"]
    base = reports[names[0]]
    for name in names:
        r = reports[name]
        d_acc = r.mean_accuracy - base.mean_accuracy
        d_anls = r.mean_anls - base.mean_anls
        lines.append(f"{name:<24} {r.n:>6} {r.mean_accuracy:8.2f} {r.mean_anls:8.2f} "
                     f"{d_acc:+8.2f} {d_anls:+8.2f}")
    return "\n".join(lines)


def subset_table(reports_by_system: dict[str, dict[str, Optional[MetricReport]]]) -> str:
    """One row per system and subset; an empty subset prints n 0 and dashes."""
    lines = [f"{'system':<24} {'subset':<8} {'n':>6} {'ACC.':>8} {'Hit%':>8}"]
    for name, subsets in reports_by_system.items():
        for subset, r in subsets.items():
            if r is None:
                lines.append(f"{name:<24} {subset:<8} {0:>6} {'-':>8} {'-':>8}")
                continue
            hr = f"{r.hit_rate:8.2f}" if r.hit_rate is not None else f"{'-':>8}"
            lines.append(f"{name:<24} {subset:<8} {r.n:>6} {r.mean_accuracy:8.2f} {hr}")
    return "\n".join(lines)


def write_csv_table(rows: Sequence[dict], path: str | Path) -> None:
    with replaced(path) as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


def write_svg_lines(path: str | Path, series: dict[str, Sequence[float]],
                    title: str = "") -> None:
    """Minimal multi-series line plot; no display server or plotting stack needed."""
    width, height, pad = 640, 360, 40
    all_vals = [v for vals in series.values() for v in vals] or [0.0]
    lo, hi = min(all_vals), max(all_vals)
    if hi == lo:
        hi = lo + 1.0
    n = max(len(vals) for vals in series.values()) or 1
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>']
    for k, (name, vals) in enumerate(series.items()):
        pts = []
        for i, v in enumerate(vals):
            x = pad + (width - 2 * pad) * (i / max(n - 1, 1))
            y = height - pad - (height - 2 * pad) * ((v - lo) / (hi - lo))
            pts.append(f"{x:.1f},{y:.1f}")
        color = colors[k % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{" ".join(pts)}"/>')
        parts.append(f'<text x="{pad}" y="{pad + 16 * k}" fill="{color}" '
                     f'font-size="12">{name}</text>')
    parts.append("</svg>")
    with replaced(path) as fh:
        fh.write("\n".join(parts))


def write_svg_bars(path: str | Path, bars: dict[str, float], title: str = "") -> None:
    width, height, pad = 640, 360, 40
    hi = max(list(bars.values()) + [1.0])
    n = len(bars) or 1
    slot = (width - 2 * pad) / n
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>']
    for i, (name, val) in enumerate(bars.items()):
        h = (height - 2 * pad) * (val / hi)
        x = pad + i * slot + slot * 0.15
        y = height - pad - h
        parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{slot * 0.7:.1f}" '
                     f'height="{h:.1f}" fill="#1f77b4"/>')
        parts.append(f'<text x="{x + slot * 0.35:.1f}" y="{height - pad + 14}" '
                     f'text-anchor="middle" font-size="11">{name}</text>')
        parts.append(f'<text x="{x + slot * 0.35:.1f}" y="{y - 4:.1f}" '
                     f'text-anchor="middle" font-size="11">{val:.2f}</text>')
    parts.append("</svg>")
    with replaced(path) as fh:
        fh.write("\n".join(parts))
