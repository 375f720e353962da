"""Single entry point wiring all pipelines.

Configuration precedence is flag > env > config file > default; everything is
resolved before any work starts. Outputs go only under --out-dir. Exit codes:
0 success (per-sample failures are counted, not fatal), 2 configuration
error, 3 backend unreachable at preflight.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import requests

from . import curation, grpo, oracle, reporting
from .backends import (Backend, EndpointConfig, HttpBackend, RecordingBackend,
                       ReplayBackend, ScriptedBackend, TranscriptStore)
from .data_model import (DatasetManifest, SamplingPolicy, dedupe_samples,
                         load_manifest, sample_frames)
from .engine import EngineConfig, run_batch
from .errors import ConfigError, VtagentError
from .metrics import REPORT_HEADER, aggregate, format_report

ENV_KEYS = {"api_base": "VTAGENT_API_BASE", "api_key": "VTAGENT_API_KEY",
            "model": "VTAGENT_MODEL"}

BACKENDS = ("http", "scripted", "replay")


@dataclass
class RunConfig:
    """Every run setting with its default, in `config show` order; a file, env
    or flag value is converted with the type of its default."""
    backend: str = "http"
    api_base: str = ""
    api_key: str = ""
    model: str = ""
    frames: int = 32
    cap: int = 8
    parallelism: int = 1
    max_attempts: int = 5
    seed: int = 0
    temperature: float = 0.0
    out_dir: Path = Path("out")
    fallback: str = "uniform"  # config file only: no flag
    # per-invocation arguments, not settings
    script: Optional[Path] = None
    store: Optional[Path] = None
    resume: bool = False


SETTINGS = tuple(f for f in fields(RunConfig) if f.name not in ("script", "store", "resume"))


def _read_config_file(path: Path) -> dict:
    values = {}
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        values.update(_read_config_file(path))
    values.update((key, os.environ[env]) for key, env in ENV_KEYS.items()
                  if os.environ.get(env))
    values.update((f.name, getattr(args, f.name)) for f in SETTINGS
                  if getattr(args, f.name, None) is not None)
    try:
        settings = {f.name: type(f.default)(values[f.name]) for f in SETTINGS
                    if f.name in values}
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid configuration value: {e}") from e
    return RunConfig(
        **settings,
        script=Path(args.script) if getattr(args, "script", None) else None,
        store=Path(args.store) if getattr(args, "store", None) else None,
        resume=bool(getattr(args, "resume", False)),
    )


def engine_config(cfg: RunConfig) -> EngineConfig:
    return EngineConfig(
        keyframe_cap=cfg.cap,
        max_attempts=cfg.max_attempts,
        parallelism=cfg.parallelism,
        fallback_policy=cfg.fallback,
        temperature=cfg.temperature,
        seed=cfg.seed,
    )


def build_backend(cfg: RunConfig) -> Backend:
    if cfg.backend == "http":
        if not cfg.api_base:
            raise ConfigError("http backend requires --api-base or VTAGENT_API_BASE")
        backend: Backend = HttpBackend(EndpointConfig(
            base_url=cfg.api_base, model=cfg.model, api_key=cfg.api_key or None))
    elif cfg.backend == "scripted":
        if cfg.script is None:
            raise ConfigError("scripted backend requires --script FILE")
        responses = [json.loads(line) if line.lstrip().startswith('"') else line
                     for line in cfg.script.read_text(encoding="utf-8").splitlines()
                     if line.strip()]
        backend = ScriptedBackend([str(r) for r in responses])
    elif cfg.backend == "replay":
        if cfg.store is None:
            raise ConfigError("replay backend requires --store FILE")
        return ReplayBackend(TranscriptStore(cfg.store))
    else:
        raise ConfigError(f"unknown backend {cfg.backend!r}")
    if cfg.store is not None:
        backend = RecordingBackend(backend, TranscriptStore(cfg.store))
    return backend


def preflight(cfg: RunConfig) -> None:
    if cfg.backend != "http":
        return
    try:
        requests.get(cfg.api_base, timeout=10)
    except requests.RequestException as e:
        raise _Unreachable(str(e)) from e


class _Unreachable(VtagentError):
    pass


def _load_sampled_manifest(cfg: RunConfig, manifest_path: str) -> DatasetManifest:
    path = Path(manifest_path)
    if not path.exists():
        raise ConfigError(f"manifest not found: {path}")
    manifest = load_manifest(path)
    policy = SamplingPolicy.uniform(cfg.frames)
    samples = tuple(sample_frames(s, policy) for s in manifest.samples)
    return replace(manifest, samples=samples)


def _prepare(args: argparse.Namespace) -> tuple[RunConfig, DatasetManifest, Backend]:
    """The prologue of every model-calling command: settings, preflight,
    sampled manifest, backend, and the output directory."""
    cfg = resolve_config(args)
    preflight(cfg)
    manifest = _load_sampled_manifest(cfg, args.manifest)
    backend = build_backend(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, manifest, backend


def _fresh(path: Path, resume: bool) -> Path:
    if not resume and path.exists():
        path.unlink()
    return path


def cmd_eval(args: argparse.Namespace) -> int:
    cfg, manifest, backend = _prepare(args)
    log_path = _fresh(cfg.out_dir / "trajectories.jsonl", cfg.resume)
    records = run_batch(manifest, backend, engine_config(cfg), log_path)
    failures = sum(1 for r in records if "error" in r)
    scores = reporting.score_records(manifest, records)
    report = aggregate(scores, split_tag=manifest.samples[0].split_tag if manifest.samples else "")
    reporting.write_score_log(scores, report, cfg.out_dir / "scores.jsonl")
    print(REPORT_HEADER)
    print(format_report(report))
    if failures:
        print(f"per-sample failures: {failures}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg, manifest, backend = _prepare(args)
    ecfg = engine_config(cfg)

    video_log = _fresh(cfg.out_dir / "trajectories.jsonl", cfg.resume)
    records = run_batch(manifest, backend, ecfg, video_log)
    video_scores = reporting.score_records(manifest, records)
    video_report = aggregate(video_scores)
    reporting.write_score_log(video_scores, video_report, cfg.out_dir / "scores.jsonl")

    framewise_log = _fresh(cfg.out_dir / "framewise.jsonl", cfg.resume)
    report = oracle.oracle_upper_bound(manifest, backend, ecfg,
                                       video_accuracy=video_report.mean_accuracy,
                                       log_path=framewise_log)
    oracle.write_partition(report.partition, cfg.out_dir)
    print(f"{'video ACC.':<16} {video_report.mean_accuracy:8.2f}")
    print(f"{'oracle ACC.':<16} {report.oracle_accuracy:8.2f}")
    print(f"{'oracle - video':<16} {report.gap:+8.2f}")
    print(f"Set_s {len(report.partition.set_s)}  Set_u {len(report.partition.set_u)}")
    return 0


def cmd_curate_sft(args: argparse.Namespace) -> int:
    cfg, manifest, backend = _prepare(args)
    manifest = replace(manifest, samples=tuple(dedupe_samples(manifest.samples)))
    out_path = _fresh(cfg.out_dir / "sft_corpus.jsonl", cfg.resume)
    records, stats = curation.generate_sft_corpus(
        manifest, backend, engine_config(cfg), out_path=out_path,
        teacher_id=cfg.model or "teacher")
    print(stats.yield_line())
    print(f"kept {stats.kept} new, {stats.skipped} resumed, dropped {stats.dropped}, "
          f"failed {stats.failed}")
    if stats.skipped and not records:
        print("0 new")
    return 0


def cmd_curate_rl(args: argparse.Namespace) -> int:
    cfg, manifest, backend = _prepare(args)
    out_path = _fresh(cfg.out_dir / "rl_corpus.jsonl", cfg.resume)
    records, stats = curation.filter_rl_corpus(
        manifest, backend, engine_config(cfg), out_path=out_path)
    print(stats.yield_line())
    hist: dict[int, int] = {}
    for rec in records:
        hist[rec.correct_count] = hist.get(rec.correct_count, 0) + 1
    for count in sorted(hist):
        print(f"correct_count={count}: {hist[count]}")
    if stats.skipped and not records:
        print("0 new")
    return 0


def cmd_grpo(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    try:
        train_cfg = grpo.TrainConfig(
            steps=args.steps, group_size=args.group, eps=args.eps, lr=args.lr,
            seed=cfg.seed, tool_reward=0.0 if args.no_tool_reward else 0.5)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    import numpy as np
    env_rng = np.random.default_rng(cfg.seed)
    env = grpo.make_env(args.env_frames, [chr(ord("a") + i) for i in range(args.vocab)],
                        env_rng)
    result = grpo.train([env], train_cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    grpo.write_curve_csv(result.curve, cfg.out_dir / "curve.csv")
    if args.svg:
        reporting.write_svg_lines(
            cfg.out_dir / "curve.svg",
            {"mean_reward": [s.mean_reward for s in result.curve],
             "tool_rate": [s.tool_rate for s in result.curve]},
            title="toy GRPO learning curve")
    print(f"final mean reward {result.curve[-1].mean_reward:.3f}  "
          f"tool rate {result.final_tool_rate():.3f}  "
          f"final-50 acc {result.final_mean_acc():.3f}  "
          f"chance {grpo.chance_baseline(env):.3f}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    reports = {}
    scores_by_system = {}
    for spec_arg in args.scores:
        name, _, path = spec_arg.partition("=")
        if not path:
            name, path = Path(spec_arg).stem, spec_arg
        scores, _summary = reporting.read_score_log(path)
        scores_by_system[name] = scores
        reports[name] = aggregate(scores, split_tag=name)
    print(reporting.side_by_side_table(reports))
    rows_csv = [{"system": name, "n": r.n, "acc": r.mean_accuracy, "anls": r.mean_anls,
                 "hit_rate": r.hit_rate} for name, r in reports.items()]
    if args.partition:
        part = oracle.read_partition(args.partition)
        rows_by_system = {name: oracle.stratified_report(scores, part)
                          for name, scores in scores_by_system.items()}
        print(reporting.subset_table(rows_by_system))
    if args.csv:
        reporting.write_csv_table(rows_csv, args.csv)
    if args.svg:
        reporting.write_svg_bars(Path(args.svg),
                                 {name: r.mean_accuracy for name, r in reports.items()},
                                 title="ACC. by system")
    return 0


def cmd_config(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    for f in SETTINGS:
        print(f"{f.name}={getattr(cfg, f.name)}")
    return 0


def _add_common(p: argparse.ArgumentParser, manifest: bool = True) -> None:
    if manifest:
        p.add_argument("--manifest", required=True)
    p.add_argument("--config", help="flat key=value config file")
    for f in SETTINGS:
        if f.name != "fallback":
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=type(f.default),
                           choices=BACKENDS if f.name == "backend" else None)
    p.add_argument("--script", help="response file for the scripted backend")
    p.add_argument("--store", help="transcript store for record/replay")
    p.add_argument("--resume", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vtagent")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="two-turn evaluation over a manifest")
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("oracle", help="frame-wise oracle upper bound and partition")
    _add_common(p)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("curate-sft", help="build the SFT trajectory corpus")
    _add_common(p)
    p.set_defaults(fn=cmd_curate_sft)

    p = sub.add_parser("curate-rl", help="filter the RL corpus by outcome inconsistency")
    _add_common(p)
    p.set_defaults(fn=cmd_curate_rl)

    p = sub.add_parser("grpo", help="toy GRPO training run")
    _add_common(p, manifest=False)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--group", type=int, default=4)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--env-frames", type=int, default=8)
    p.add_argument("--vocab", type=int, default=6)
    p.add_argument("--no-tool-reward", action="store_true")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(fn=cmd_grpo)

    p = sub.add_parser("report", help="merge score/partition logs into tables")
    _add_common(p, manifest=False)
    p.add_argument("--scores", nargs="+", required=True,
                   help="score logs, optionally name=path")
    p.add_argument("--partition", help="directory holding set_s.ids / set_u.ids")
    p.add_argument("--csv")
    p.add_argument("--svg", nargs="?", const="report.svg")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("config", help="show the fully resolved configuration")
    _add_common(p, manifest=False)
    p.add_argument("action", choices=["show"])
    p.set_defaults(fn=cmd_config)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _Unreachable as e:
        print(f"backend unreachable: {e}", file=sys.stderr)
        return 3
    except VtagentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
