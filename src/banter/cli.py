"""Command line front end: train, eval, inspect, and verify subcommands.

Exit codes: 0 success, 2 configuration or output problem, 3 data problem,
4 numeric failure during optimization, 5 verification failure. ``main``
maps the library's exceptions to them; a subcommand converts one itself
only where the same exception class means another problem there.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from functools import partial
from pathlib import Path

from .data import (
    CorpusError,
    OutputError,
    check_fraction,
    decode_line,
    load_corpus,
    load_embeddings,
    read_bytes,
    split_train_val,
    write_json,
)
from .model import (
    CheckpointError,
    ConfigError,
    ModalityError,
    ModelConfig,
    TASK_MODES,
    build_variant,
    forward_dialog,
    load_checkpoint,
    parameter_shapes,
    save_checkpoint,
    variant_label,
)
from .report import export_heatmap, render_report, task_results
from .tensor import NumericError
from .train import TrainConfig, evaluate_split, train
from .verify import run_checks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_VERIFY = 5

_FIELD_DEFAULTS = {f.name: f.default for cls in (ModelConfig, TrainConfig)
                   for f in dataclasses.fields(cls)}
# every run-file key, its parser, default, and the line --help prints; a
# key named after a ModelConfig or TrainConfig field gives only the line,
# and takes that field's default, parsed by the default's type
CONFIG_KEYS = {key: spec if isinstance(spec, tuple) else
               (type(_FIELD_DEFAULTS[key]), _FIELD_DEFAULTS[key], spec)
               for key, spec in {
    "corpus": (str, None, "path to the JSON-lines dialog corpus"),
    "embeddings": (str, None, "path to the token embedding text table"),
    "out_dir": (str, "runs", "directory for checkpoint, history, report"),
    "variant": (str, "full", "model variant row name, or 'full'"),
    "task_mode": "sarcasm, humor, or joint",
    "d_hidden": "LSTM hidden width per modality",
    "d_audio": "acoustic encoder output width",
    "attn_width_tokens": "utterance-level attention window",
    "attn_width_dialog": "dialog-level attention window",
    "dropout": "rate on utterance reps and head hidden",
    "head_hidden": "classifier head hidden width",
    "lr": "Adam learning rate",
    "batch_size": "dialogs per optimizer step",
    "max_epochs": "epoch cap",
    "patience": "epochs without val F1 gain before stopping",
    "seed": "seed for init, batching, dropout, and the split",
    "grad_clip": "global gradient norm ceiling",
    "threshold": "probability cutoff for positive calls",
    "val_fraction": (float, 0.1, "dialogs held out for validation"),
}.items()}

# the default cutoff, for callers that score outside a saved model
EVAL_THRESHOLD = ModelConfig.threshold


class CliError(Exception):
    """Carries the exit code alongside the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _convert(key: str, raw: str):
    converter = CONFIG_KEYS[key][0]
    try:
        return converter(raw)
    except ValueError:
        raise CliError(EXIT_CONFIG,
                       f"config key {key!r}: cannot parse {raw!r} "
                       f"as {converter.__name__}") from None


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; '#' comments and blank lines are skipped."""
    path = Path(path)
    lines = read_bytes(path, partial(CliError, EXIT_CONFIG)).splitlines()
    raw: dict[str, str] = {}
    for lineno, raw_line in enumerate(lines, start=1):
        try:
            line = decode_line(raw_line, path, lineno)
        except CorpusError as exc:
            raise CliError(EXIT_CONFIG, str(exc)) from None
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(EXIT_CONFIG,
                           f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise CliError(EXIT_CONFIG,
                           f"{path}:{lineno}: unknown config key {key!r}; "
                           f"known keys: {', '.join(CONFIG_KEYS)}")
        if key in raw:
            raise CliError(EXIT_CONFIG,
                           f"{path}:{lineno}: duplicate config key {key!r}")
        raw[key] = value
    return raw


def resolve_settings(config_path, overrides: dict) -> dict:
    """Defaults, then the config file, then non-None flag overrides."""
    settings = {key: default for key, (_, default, _) in CONFIG_KEYS.items()}
    if config_path is not None:
        for key, raw in parse_config_file(config_path).items():
            settings[key] = _convert(key, raw)
    for key, value in overrides.items():
        if value is not None:
            settings[key] = value
    return settings


def _fields_of(cls, settings: dict) -> dict:
    """The settings named after the fields of the dataclass ``cls``."""
    return {f.name: settings[f.name] for f in dataclasses.fields(cls)
            if f.name in settings}


def _model_config(settings: dict) -> ModelConfig:
    return build_variant(settings["variant"],
                         **_fields_of(ModelConfig, settings))


def _embeddings_for(config: ModelConfig, path_str, *, source: str):
    """Load the table a text-reading model needs; None for audio-only."""
    if not config.uses_text:
        return None
    if not path_str:
        raise CliError(EXIT_CONFIG,
                       f"{source} is required: the model variant reads text")
    return load_embeddings(path_str)


def _output_dir(path_str, source: str) -> Path:
    """The output directory, checked before any work is done.

    The path, or else its nearest existing ancestor, must be a directory;
    nothing is created here, so a failed run leaves no directory behind.
    """
    path = existing = Path(path_str)
    try:
        while not existing.exists() and existing != existing.parent:
            existing = existing.parent
        fault = None if existing.is_dir() else f"{existing} is not a directory"
    except OSError as exc:
        fault = f"cannot check {existing}: {exc.strerror}"
    if fault:
        raise CliError(EXIT_CONFIG, f"{source} {str(path)!r}: {fault}")
    return path


def _print_metrics(prefix: str, metrics: dict) -> None:
    for task, m in metrics.items():
        print(f"  {prefix}{task}: precision={m.precision:.4f} "
              f"recall={m.recall:.4f} f1={m.f1:.4f} "
              f"accuracy={m.accuracy:.4f}")


def cmd_train(args) -> int:
    settings = resolve_settings(args.config, {
        "task_mode": args.task,
        "variant": args.variant,
        "seed": args.seed,
        "out_dir": args.out,
    })
    if not settings["corpus"]:
        raise CliError(EXIT_CONFIG, "config key 'corpus' is required to train")
    config = _model_config(settings)
    train_config = TrainConfig(**_fields_of(TrainConfig, settings))
    out_dir = _output_dir(settings["out_dir"], "--out" if args.out
                          else "config key 'out_dir'")
    try:
        check_fraction(settings["val_fraction"])
    except ValueError as exc:
        raise CliError(EXIT_CONFIG,
                       f"config key 'val_fraction': {exc}") from None
    dialogs = load_corpus(settings["corpus"])
    table = _embeddings_for(config, settings["embeddings"],
                            source="config key 'embeddings'")
    if table is not None:
        # the token width is the table's
        config = dataclasses.replace(config, d_text_in=table.dimension)
    train_dialogs, val_dialogs = split_train_val(
        dialogs, settings["val_fraction"], train_config.seed)
    try:
        best, history = train(config, train_dialogs, val_dialogs,
                              train_config, table)
    except MemoryError:
        # a run file that asks for more memory than the process can have
        shapes = parameter_shapes(config)
        sizes = dict(zip(shapes, map(math.prod, shapes.values())))
        name = max(sizes, key=sizes.get)
        raise CliError(EXIT_CONFIG, f"{args.config}: training ran out of "
                       f"memory; the largest parameter, {name!r}, has shape "
                       f"{shapes[name]}") from None

    checkpoint_path = out_dir / "model.ckpt"
    save_checkpoint(best, checkpoint_path, config)
    # report from the float32 values the checkpoint holds, so that `eval`
    # of the saved file agrees with this report at the threshold
    saved, _ = load_checkpoint(checkpoint_path)
    matrices, metrics = evaluate_split(config, saved, val_dialogs, table,
                                       threshold=config.threshold)
    history_path = out_dir / "history.csv"
    history.to_csv(history_path)
    report_path = out_dir / "report.txt"
    render_report(history.rows(), matrices, metrics, config, report_path)

    print(f"trained {variant_label(config)} for {len(history)} epochs "
          f"({len(train_dialogs)} train / {len(val_dialogs)} val dialogs)")
    _print_metrics("val ", metrics)
    for artifact in (checkpoint_path, history_path, report_path,
                     report_path.with_suffix(".json")):
        print(f"  wrote {artifact}")
    return EXIT_OK


def _evaluation_document(config, matrices, metrics, n_dialogs):
    return {
        "variant": variant_label(config),
        "threshold": config.threshold,
        "dialogs": n_dialogs,
        "tasks": task_results(matrices, metrics, config.tasks),
    }


def _load_for_scoring(args):
    """(out_dir, params, config, dialogs, table), as eval and inspect read
    them; ``--out`` is checked first."""
    out_dir = _output_dir(args.out, "--out")
    params, config = load_checkpoint(args.checkpoint)
    dialogs = load_corpus(args.data)
    table = _embeddings_for(config, args.embeddings, source="--embeddings")
    if table is not None and table.dimension != config.d_text_in:
        raise CliError(EXIT_DATA,
                       f"{args.embeddings} carries {table.dimension}-"
                       f"dimensional vectors but {args.checkpoint} reads "
                       f"{config.d_text_in}-dimensional ones")
    return out_dir, params, config, dialogs, table


def cmd_eval(args) -> int:
    out_dir, params, config, dialogs, table = _load_for_scoring(args)
    matrices, metrics = evaluate_split(config, params, dialogs, table,
                                       threshold=config.threshold)

    metrics_path = out_dir / "metrics.json"
    write_json(metrics_path, _evaluation_document(config, matrices, metrics,
                                                  len(dialogs)))
    report_path = out_dir / "report.txt"
    render_report([], matrices, metrics, config, report_path)

    print(f"evaluated {variant_label(config)} on {len(dialogs)} dialogs")
    _print_metrics("", metrics)
    for artifact in (metrics_path, report_path,
                     report_path.with_suffix(".json")):
        print(f"  wrote {artifact}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    out_dir, params, config, dialogs, table = _load_for_scoring(args)
    by_id = {d.dialog_id: d for d in dialogs}
    if args.dialog_id not in by_id:
        known = ", ".join(sorted(by_id)[:8])
        raise CliError(EXIT_DATA,
                       f"unknown dialog id {args.dialog_id!r}; corpus has "
                       f"{len(by_id)} dialogs (first ids: {known})")
    dialog = by_id[args.dialog_id]
    prediction = forward_dialog(config, params, dialog, table,
                                training=False)

    rows = []
    for k, utt in enumerate(dialog.utterances):
        labels = {}
        for task in config.tasks:
            probability = float(prediction.scores[task].data[k, 0])
            labels[task] = {"actual": getattr(utt, task),
                            "predicted": int(probability >= config.threshold),
                            "probability": probability}
        rows.append({"uid": utt.uid, "speaker": utt.speaker,
                     "text": " ".join(utt.tokens), "labels": labels})
    utterances_path = out_dir / "utterances.json"
    write_json(utterances_path, {"dialog_id": dialog.dialog_id,
                                 "variant": variant_label(config),
                                 "utterances": rows})

    print(f"dialog {dialog.dialog_id}: {len(rows)} utterances, "
          f"{variant_label(config)}")
    for row in rows:
        cells = [f"{task} gold={row['labels'][task]['actual']} "
                 f"pred={row['labels'][task]['predicted']}"
                 for task in config.tasks]
        print(f"  {row['uid']} [{row['speaker']}] {' | '.join(cells)}"
              + (f"  {row['text']}" if row["text"] else ""))
    print(f"  wrote {utterances_path}")

    if prediction.dialog_trace is not None:
        heatmap_path = out_dir / "heatmap.json"
        export_heatmap(prediction.dialog_trace, dialog.dialog_id, heatmap_path)
        print(f"  wrote {heatmap_path}")
    else:
        print("  no attention heatmap: context attention is disabled "
              "in this variant")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checks()
    for result in results:
        if result.passed:
            print(f"ok    {result.name}")
        else:
            detail = result.detail.replace("\n", "\n      ")
            print(f"FAIL  {result.name}: {detail}")
    failed = [r for r in results if not r.passed]
    if failed:
        names = ", ".join(r.name for r in failed)
        print(f"{len(results)} checks, {len(failed)} failed: {names}")
        return EXIT_VERIFY
    print(f"{len(results)} checks, all passed")
    return EXIT_OK


def _config_key_help() -> str:
    lines = ["config file keys (key = value, one per line, # comments):"]
    for key, (converter, default, text) in CONFIG_KEYS.items():
        lines.append(f"  {key:<18} {text} (default: {default})")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banter",
        description="Conversational sarcasm and humor classifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser(
        "train", help="fit a variant and write its artifacts",
        epilog=_config_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_train.add_argument("--config", help="run configuration file")
    p_train.add_argument("--task", choices=TASK_MODES,
                         help="override task_mode")
    p_train.add_argument("--variant", help="override the model variant row")
    p_train.add_argument("--seed", type=int, help="override the seed")
    p_train.add_argument("--out", help="override out_dir")
    p_train.set_defaults(handler=cmd_train)

    p_eval = sub.add_parser("eval",
                            help="score a checkpoint against a corpus")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True, help="corpus to score")
    p_eval.add_argument("--embeddings",
                        help="embedding table (text variants only)")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.set_defaults(handler=cmd_eval)

    p_inspect = sub.add_parser(
        "inspect", help="per-utterance predictions and attention heatmap")
    p_inspect.add_argument("--checkpoint", required=True)
    p_inspect.add_argument("--data", required=True)
    p_inspect.add_argument("--embeddings",
                           help="embedding table (text variants only)")
    p_inspect.add_argument("--dialog-id", required=True)
    p_inspect.add_argument("--out", required=True)
    p_inspect.set_defaults(handler=cmd_inspect)

    p_verify = sub.add_parser(
        "verify", help="run the built-in gradient and property checks")
    p_verify.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        code, message = exc.code, exc.message
    except (ConfigError, OutputError) as exc:
        code, message = EXIT_CONFIG, str(exc)
    except (CorpusError, CheckpointError, ModalityError) as exc:
        code, message = EXIT_DATA, str(exc)
    except NumericError as exc:
        code, message = EXIT_NUMERIC, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(main())
