"""Single entry point wiring all pipelines.

Configuration precedence is flag > env > config file > default. `RunConfig`
extends the engine's `EngineConfig`, so each setting is declared once and
checked once, when `resolve_config` builds it: before the manifest load, the
preflight and any write. Outputs go only under --out-dir. Exit codes:
0 success (per-sample failures are counted, not fatal), 2 configuration
error or a file the run cannot read or write, 3 backend unreachable at
preflight.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

from . import curation, oracle, reporting
from .backends import (Backend, EndpointConfig, HttpBackend, RecordingBackend,
                       ReplayBackend, ScriptedBackend, TranscriptStore, _exchange)
from .data_model import (DatasetManifest, SamplingPolicy, dedupe_samples,
                         load_manifest, sample_manifest)
from .engine import EngineConfig, episode_job, run_batch, run_units
from .errors import BackendUnavailable, ConfigError, VtagentError
from .jsonl import read_lines
from .metrics import REPORT_HEADER, MetricReport, aggregate, format_report

ENV_KEYS = {"api_base": "VTAGENT_API_BASE", "api_key": "VTAGENT_API_KEY",
            "model": "VTAGENT_MODEL"}

BACKENDS = ("http", "scripted", "replay")


@dataclass(frozen=True)
class RunConfig(EngineConfig):
    """Every run setting with its default, in `config show` order: the
    engine's settings first, then the rest. A file, env or flag value is
    converted with the type of its default and checked when the config is
    built. `fallback` is set in a config file only: it has no flag."""
    backend: str = "http"
    api_base: str = ""
    api_key: str = ""
    model: str = ""
    frames: int = 32
    out_dir: Path = Path("out")
    # per-invocation arguments, not settings
    script: Optional[Path] = None
    store: Optional[Path] = None
    resume: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.frames < 1:
            raise ConfigError(f"invalid configuration value: frames must be >= 1, "
                              f"got {self.frames}")


SETTINGS = tuple(f for f in fields(RunConfig) if f.name not in ("script", "store", "resume"))


def _read_config_file(path: Path) -> dict:
    values = {}
    for line_no, line in read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in {f.name for f in SETTINGS}:
            raise ConfigError(f"{path}:{line_no}: unknown setting {key!r}")
        values[key] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(_read_config_file(Path(args.config)))
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


def _endpoint(cfg: RunConfig) -> EndpointConfig:
    """The http backend's endpoint; EndpointConfig's check of the base URL
    or the key becomes a ConfigError naming the flag."""
    if not cfg.api_base:
        raise ConfigError("http backend requires --api-base or VTAGENT_API_BASE")
    try:
        return EndpointConfig(base_url=cfg.api_base, model=cfg.model,
                              api_key=cfg.api_key or None)
    except ValueError as e:
        field, _, fault = str(e).partition(" ")  # the message names the field first
        flag = {"base_url": "--api-base", "api_key": "--api-key"}[field]
        raise ConfigError(f"{flag} {fault}") from e


def build_backend(cfg: RunConfig) -> Backend:
    if cfg.backend == "http":
        backend: Backend = HttpBackend(_endpoint(cfg))
    elif cfg.backend == "scripted":
        if cfg.script is None:
            raise ConfigError("scripted backend requires --script FILE")
        responses = []
        for line_no, line in read_lines(cfg.script):
            try:  # a quoted line is a JSON string; a lone surrogate cannot be logged
                response = json.loads(line) if line.lstrip().startswith('"') else line
                response.encode()
            except ValueError as e:
                raise ConfigError(f"{cfg.script}:{line_no}: {e}") from e
            if line.strip():
                responses.append(response)
        backend = ScriptedBackend(responses)
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
    """One GET of the API base, without the key: a reply of any status, such
    as 404 for GET /v1 or a redirect, means reachable, and a
    BackendUnavailable ends the command with exit 3."""
    if cfg.backend == "http":
        _exchange(_endpoint(cfg), cfg.api_base, 10)


def _load_sampled_manifest(cfg: RunConfig, manifest_path: str) -> DatasetManifest:
    return sample_manifest(load_manifest(manifest_path), SamplingPolicy.uniform(cfg.frames))


def _prepare(args: argparse.Namespace) -> tuple[RunConfig, DatasetManifest, Backend]:
    """The prologue of every model-calling command: settings, sampled
    manifest, backend, the output directory and preflight. Every
    configuration error, and every fault in the manifest, config file,
    script, store or output directory (exit 2), comes before the preflight
    (exit 3)."""
    cfg = resolve_config(args)
    manifest = _load_sampled_manifest(cfg, args.manifest)
    backend = build_backend(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    preflight(cfg)
    return cfg, manifest, backend


def _fresh(path: Path, resume: bool) -> Path:
    if not resume and path.exists():
        path.unlink()
    return path


def _score_episodes(cfg: RunConfig, manifest: DatasetManifest,
                    records: list[dict]) -> tuple[MetricReport, int]:
    """Write the scores of the episode records to scores.jsonl; returns the
    report and the number of failed samples."""
    scores = reporting.score_records(manifest, records)
    report = aggregate(scores, split_tag=manifest.samples[0].split_tag if manifest.samples else "")
    reporting.write_score_log(scores, report, cfg.out_dir / "scores.jsonl")
    return report, sum(1 for r in records if "error" in r)


def cmd_eval(args: argparse.Namespace) -> int:
    cfg, manifest, backend = _prepare(args)
    records = run_batch(manifest, backend, cfg,
                        _fresh(cfg.out_dir / "trajectories.jsonl", cfg.resume))
    report, failures = _score_episodes(cfg, manifest, records)
    print(REPORT_HEADER)
    print(format_report(report))
    if failures:
        print(f"per-sample failures: {failures}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    """The episodes and the frame-wise queries share one pool: neither waits
    for the other, and both logs are done before scores.jsonl is written."""
    cfg, manifest, backend = _prepare(args)
    episodes, frames = run_units(
        [episode_job(manifest, backend, cfg,
                     _fresh(cfg.out_dir / "trajectories.jsonl", cfg.resume)),
         oracle.framewise_job(manifest, backend, cfg,
                              _fresh(cfg.out_dir / "framewise.jsonl", cfg.resume))],
        cfg.parallelism)
    video, failures = _score_episodes(cfg, manifest, episodes)
    report = oracle.oracle_report(manifest, frames)
    oracle.write_partition(report.partition, cfg.out_dir)
    print(f"{'video ACC.':<16} {video.mean_accuracy:8.2f}")
    print(f"{'oracle ACC.':<16} {report.oracle_accuracy:8.2f}")
    print(f"{'oracle - video':<16} {report.oracle_accuracy - video.mean_accuracy:+8.2f}")
    print(f"Set_s {len(report.partition.set_s)}  Set_u {len(report.partition.set_u)}")
    if failures:
        print(f"per-sample failures: {failures}")
    if report.failed_frames:
        print(f"failed frames: {report.failed_frames} in {report.failed_samples} samples")
    return 0


def _print_totals(stats: curation.CurationStats) -> None:
    print(stats.yield_line())
    print(f"kept {stats.kept}, dropped {stats.dropped}, failed {stats.failed}")


def cmd_curate_sft(args: argparse.Namespace) -> int:
    cfg, manifest, backend = _prepare(args)
    manifest = replace(manifest, samples=tuple(dedupe_samples(manifest.samples)))
    corpus = _fresh(cfg.out_dir / "sft_corpus.jsonl", cfg.resume)
    lines, stats = curation.generate_sft_corpus(
        manifest, backend, cfg,
        log_path=_fresh(cfg.out_dir / "sft_outcomes.jsonl", cfg.resume),
        teacher_id=cfg.model or "teacher")
    curation.write_corpus(lines, corpus)
    _print_totals(stats)
    return 0


def cmd_curate_rl(args: argparse.Namespace) -> int:
    cfg, manifest, backend = _prepare(args)
    corpus = _fresh(cfg.out_dir / "rl_corpus.jsonl", cfg.resume)
    lines, stats = curation.filter_rl_corpus(
        manifest, backend, cfg,
        log_path=_fresh(cfg.out_dir / "rl_outcomes.jsonl", cfg.resume))
    curation.write_corpus(lines, corpus)
    _print_totals(stats)
    hist = Counter(line["correct_count"] for line in lines)
    for count in sorted(hist):
        print(f"correct_count={count}: {hist[count]}")
    return 0


def cmd_grpo(args: argparse.Namespace) -> int:
    # numpy, which grpo needs, is imported by no other command
    from . import grpo
    cfg = resolve_config(args)
    try:
        train_cfg = grpo.TrainConfig(
            steps=args.steps, group_size=args.group, eps=args.eps, lr=args.lr,
            seed=cfg.seed, tool_reward=0.0 if args.no_tool_reward else 0.5)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if args.env_frames < 1 or args.vocab < 1:
        raise ConfigError("--env-frames and --vocab must be >= 1")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    import numpy as np
    env_rng = np.random.default_rng(cfg.seed)
    env = grpo.make_env(args.env_frames, [chr(ord("a") + i) for i in range(args.vocab)],
                        env_rng)
    result = grpo.train([env], train_cfg)
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
    reports = {}
    scores_by_system = {}
    for spec_arg in args.scores:
        name, _, path = spec_arg.partition("=")
        if not path:
            name, path = Path(spec_arg).stem, spec_arg
        if name in reports:
            raise ConfigError(f"system name {name!r} given twice; name each log "
                              "with name=path")
        scores = reporting.read_score_log(path)
        scores_by_system[name] = scores
        reports[name] = aggregate(scores, split_tag=name)
    part = oracle.read_partition(args.partition) if args.partition else None
    print(reporting.side_by_side_table(reports))
    rows_csv = [{"system": name, "n": r.n, "acc": r.mean_accuracy, "anls": r.mean_anls,
                 "hit_rate": r.hit_rate} for name, r in reports.items()]
    if part:
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


FLAGS = tuple(f.name for f in SETTINGS if f.name != "fallback")


def _add_settings(p: argparse.ArgumentParser, names: tuple[str, ...] = FLAGS,
                  run_args: bool = True) -> None:
    """--config, one flag per named setting, and, with run_args, the
    per-invocation --script, --store and --resume."""
    p.add_argument("--config", help="flat key=value config file")
    for f in SETTINGS:
        if f.name in names:
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=type(f.default),
                           choices=BACKENDS if f.name == "backend" else None)
    if run_args:
        p.add_argument("--script", help="response file for the scripted backend")
        p.add_argument("--store", help="transcript store for record/replay")
        p.add_argument("--resume", action="store_true")


def _model_command(fn, help_text: str, flags: tuple[str, ...] = FLAGS):
    """Adds a command that runs a manifest through the model."""
    def add(sub, name: str) -> None:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", required=True)
        _add_settings(p, flags)
        p.set_defaults(fn=fn)
    return add


def _add_grpo(sub, name: str) -> None:
    p = sub.add_parser(name, help="toy GRPO training run")
    _add_settings(p, ("seed", "out_dir"), run_args=False)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--group", type=int, default=4)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--env-frames", type=int, default=8)
    p.add_argument("--vocab", type=int, default=6)
    p.add_argument("--no-tool-reward", action="store_true")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(fn=cmd_grpo)


def _add_report(sub, name: str) -> None:
    p = sub.add_parser(name, help="merge score/partition logs into tables")
    p.add_argument("--scores", nargs="+", required=True,
                   help="score logs, optionally name=path")
    p.add_argument("--partition", help="directory holding set_s.ids / set_u.ids")
    p.add_argument("--csv")
    p.add_argument("--svg", nargs="?", const="report.svg")
    p.set_defaults(fn=cmd_report)


def _add_config(sub, name: str) -> None:
    p = sub.add_parser(name, help="show the fully resolved configuration")
    _add_settings(p, run_args=False)
    p.add_argument("action", choices=["show"])
    p.set_defaults(fn=cmd_config)


_CURATE_FLAGS = tuple(n for n in FLAGS if n != "temperature")  # curation decodes at 1

# each command's name and what adds its subparser, in --help order
COMMANDS = {
    "eval": _model_command(cmd_eval, "two-turn evaluation over a manifest"),
    "oracle": _model_command(cmd_oracle, "frame-wise oracle upper bound and partition"),
    "curate-sft": _model_command(cmd_curate_sft, "build the SFT trajectory corpus",
                                 _CURATE_FLAGS),
    "curate-rl": _model_command(cmd_curate_rl, "filter the RL corpus by outcome inconsistency",
                                _CURATE_FLAGS),
    "grpo": _add_grpo,
    "report": _add_report,
    "config": _add_config,
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone. The two print the
    same usage, help and errors for any argv that names `command` first:
    the one-command parser lists every command in its usage."""
    parser = argparse.ArgumentParser(prog="vtagent")
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(COMMANDS) + "}")
    for name, add in COMMANDS.items():
        if command in (None, name):
            add(sub, name)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the command argv names is built: building all of them costs
    # milliseconds per call
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.fn(args)
    except BackendUnavailable as e:  # only the preflight's: run_units catches the rest
        print(f"backend unreachable: {e}", file=sys.stderr)
        return 3
    # an OSError that gets here is a file's or a stream's: the backends and
    # the frame reader map their own
    except (VtagentError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
