"""One workload in its own process, the way a user runs train and then eval.

A round is the whole user flow: load the corpus and the embeddings, split,
initialise, ``train()`` for a fixed number of epochs (patience equal to the
epoch count, so early stopping never shortens it), save and reload the
checkpoint, score eval dialogs untimed for ``WARMUP_S``, then score the
eval corpus with ``evaluate_split``, timing each eval-mode ``forward_dialog``
call it makes. A run does a fixed number of whole rounds, its seconds over
the workload's nominal round time, so every run of a workload does the same
work. The correctness checks run outside the timed sections.

Run through ``perfbench/run.py``, which writes the inputs first. The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from banter import data, model
from banter import train as train_mod
from banter.cli import EVAL_THRESHOLD
from banter.train import TrainConfig

import checks
from inputs import WORKLOADS, InputFiles, input_files
from tracing import Tracer, ancestors, self_times

# untimed eval-mode scoring before the timed eval pass of each round
WARMUP_S = 0.5
REFERENCE_DIALOGS = 2
# The program's own seed (init, split, batch order, dropout) is fixed, like
# the epochs and the batch size: the input seed changes the data, never
# which dialogs share a batch, so every seed costs the same work.
PROGRAM_SEED = 0

END_TO_END = {
    "setup_s": "s",
    "train_utt_per_s": "utt/s",
    "eval_utt_per_s": "utt/s",
    "eval_dialog_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

FORWARD_LAYERS = (
    "hier_attention.hier_attend",
    "encoders.acoustic_encode",
    "encoders.lstm_encode_dialog",
    "context_attention.contextualize_dialog",
    "fusion.filter_modality",
    "model.forward_dialog",
)
# spans whose whole duration, summed per round, is the metric
WHOLE_SPANS = {
    "tensor.backward": "tensor.backward_s",
    "optim.clip_gradients": "optim.clip_gradients_s",
    "optim.adam_step": "optim.adam_step_s",
    "data.load_corpus": "data.load_corpus_s",
    "data.load_embeddings": "data.load_embeddings_s",
    "model.init_parameters": "model.init_parameters_s",
    "model.load_checkpoint": "model.load_checkpoint_s",
}

PER_LAYER = {}
for _layer in FORWARD_LAYERS:
    PER_LAYER[f"{_layer}.train_fwd_s"] = "s"
    PER_LAYER[f"{_layer}.eval_fwd_s"] = "s"
    PER_LAYER[f"{_layer}.tape_nodes_per_utt"] = "count"
PER_LAYER.update({
    "tensor.backward_s": "s",
    "tensor.tape_nodes_per_utt": "count",
    "optim.clip_gradients_s": "s",
    "optim.adam_step_s": "s",
    "train.evaluate_split_s": "s",
    "data.load_corpus_s": "s",
    "data.load_embeddings_s": "s",
    "data.embed_utterance_s": "s",
    "model.init_parameters_s": "s",
    "model.load_checkpoint_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
})


def blas_threads() -> int:
    """Thread count of the OpenBLAS numpy ships with; 0 if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


@dataclass
class Round:
    wall_s: float = 0.0
    setup_s: float = 0.0
    train_s: float = 0.0
    train_utts: int = 0  # training utterances times epochs
    steps: int = 0
    eval_s: float = 0.0
    eval_utts: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def operations(self) -> int:
        # one per optimizer step, one per dialog scored in eval
        return self.steps + len(self.latencies_ms)


class Workload:
    def __init__(self, spec, files: InputFiles, seed: int, work_dir: Path):
        self.spec = spec
        self.files = files
        self.seed = seed
        self.checkpoint = work_dir / "model.ckpt"
        self.config = model.build_variant(spec.variant, task_mode="joint")
        self.train_config = TrainConfig(
            batch_size=spec.batch_size, max_epochs=spec.epochs,
            patience=spec.epochs, seed=PROGRAM_SEED)
        # kept from the first round for the checks
        self.loaded = None
        self.eval_dialogs = None
        self.table = None

    def _embeddings(self):
        if not self.config.uses_text:
            return None
        return data.load_embeddings(self.files.embeddings)

    def run_round(self, span=lambda name: contextlib.nullcontext()) -> Round:
        r = Round()
        clock = time.perf_counter
        round_start = clock()

        # train phase
        start = clock()
        with span("phase.setup_train"):
            dialogs = data.load_corpus(self.files.train_corpus)
            table = self._embeddings()
            train_dialogs, val_dialogs = data.split_train_val(
                dialogs, self.spec.val_fraction, PROGRAM_SEED)
            params = model.init_parameters(
                self.config, np.random.default_rng(PROGRAM_SEED))
        r.setup_s += clock() - start

        start = clock()
        with span("phase.train"):
            best, history = train_mod.train(
                self.config, train_dialogs, val_dialogs, self.train_config,
                table, initial_params=params)
        r.train_s = clock() - start
        if len(history) != self.spec.epochs:
            r.failures.append(f"train ran {len(history)} epochs, "
                              f"expected {self.spec.epochs}")
        r.train_utts = self.spec.epochs * sum(
            len(d.utterances) for d in train_dialogs)
        r.steps = self.spec.epochs * math.ceil(
            len(train_dialogs) / self.spec.batch_size)
        model.save_checkpoint(best, self.checkpoint, self.config)

        # eval phase
        start = clock()
        with span("phase.setup_eval"):
            loaded, config = model.load_checkpoint(self.checkpoint)
            eval_dialogs = data.load_corpus(self.files.eval_corpus)
            table = self._embeddings()
        r.setup_s += clock() - start

        # Warm up before timing: on the reference VM the first half second
        # of scoring after the loads ran up to 2.5x slower than the rest, by
        # an amount that moved with the host's load. A real eval corpus is
        # far longer than this one, so that start would weigh far more here
        # than for a user.
        with span("phase.warmup"):
            warm_until = clock() + WARMUP_S
            for dialog in itertools.cycle(eval_dialogs):
                model.forward_dialog(config, loaded, dialog, table,
                                     training=False)
                if clock() >= warm_until:
                    break

        # evaluate_split looks forward_dialog up in banter.train: time each
        # of its calls there and keep the outputs for check (d)
        outputs = []
        scored = train_mod.forward_dialog

        def timed_forward(*args, **kwargs):
            start = clock()
            prediction = scored(*args, **kwargs)
            r.latencies_ms.append(1e3 * (clock() - start))
            outputs.append(prediction)
            return prediction

        train_mod.forward_dialog = timed_forward
        start = clock()
        try:
            with span("phase.eval"):
                matrices, metrics = train_mod.evaluate_split(
                    config, loaded, eval_dialogs, table, threshold=EVAL_THRESHOLD)
        finally:
            train_mod.forward_dialog = scored
        r.eval_s = clock() - start
        r.eval_utts = sum(len(d.utterances) for d in eval_dialogs)
        r.wall_s = clock() - round_start

        r.failures += checks.check_metrics(
            config, eval_dialogs, [checks.probabilities(p) for p in outputs],
            matrices, metrics, EVAL_THRESHOLD)
        r.failures += checks.check_checkpoint(best, loaded)
        if self.loaded is None:
            self.loaded, self.eval_dialogs, self.table = (loaded, eval_dialogs,
                                                          table)
        return r

    def model_checks(self) -> list[str]:
        """Checks (a)-(c) on the first round's loaded parameters."""
        rng = np.random.default_rng([self.seed, 7])
        picks = rng.choice(len(self.eval_dialogs),
                           size=min(REFERENCE_DIALOGS, len(self.eval_dialogs)),
                           replace=False)
        sample = [self.eval_dialogs[int(k)] for k in picks]
        return (checks.check_reference(self.config, self.loaded, sample,
                                       self.table)
                + checks.check_causality(self.config, self.loaded, sample[0],
                                         self.table)
                + checks.check_gradient(self.config, self.loaded, sample[-1],
                                        self.table, self.seed))


def end_to_end_metrics(rounds: list[Round]) -> dict[str, float]:
    latencies = [ms for r in rounds for ms in r.latencies_ms]
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "train_utt_per_s": statistics.median(r.train_utts / r.train_s
                                             for r in rounds),
        "eval_utt_per_s": statistics.median(r.eval_utts / r.eval_s
                                            for r in rounds),
        "eval_dialog_p50_ms": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer_metrics(spans, traced: list[Round],
                      untraced: list[Round]) -> dict[str, float]:
    """Per traced round: self times, whole-span times and tape counts."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    seconds, nodes = self_times(spans)
    for i, s in enumerate(spans):
        above = ancestors(spans, i)
        in_training = "train.train" in above
        in_validation = in_training and "train.evaluate_split" in above
        if s.name in FORWARD_LAYERS:
            if in_training and not in_validation:
                values[f"{s.name}.train_fwd_s"] += seconds[i]
                values[f"{s.name}.tape_nodes_per_utt"] += nodes[i]
            elif "phase.eval" in above:
                values[f"{s.name}.eval_fwd_s"] += seconds[i]
        elif s.name in WHOLE_SPANS:
            values[WHOLE_SPANS[s.name]] += s.end - s.start
            if s.name == "tensor.backward":
                values["tensor.tape_nodes_per_utt"] += s.tape_before
        elif s.name == "train.evaluate_split" and in_training:
            values["train.evaluate_split_s"] += s.end - s.start
        elif s.name == "data.embed_utterance" and "phase.eval" in above:
            values["data.embed_utterance_s"] += seconds[i]

    utterances = sum(r.train_utts for r in traced)
    for name, unit in PER_LAYER.items():
        if name.endswith("tape_nodes_per_utt"):
            values[name] /= utterances
        elif unit == "s":
            values[name] /= len(traced)
    with_trace = statistics.median(r.wall_s for r in traced)
    without = statistics.median(r.wall_s for r in untraced)
    values["trace.overhead_s"] = with_trace - without
    values["trace.overhead_pct"] = 100.0 * (with_trace - without) / without
    return values


def run(spec, files: InputFiles, seed: int, seconds: float, trace: bool,
        work_dir: Path, spans_path: Path | None = None) -> dict:
    workload = Workload(spec, files, seed, work_dir)
    rounds: list[Round] = []
    traced: list[Round] = []
    tracer = Tracer()
    # a traced run alternates untraced and traced rounds, so the overhead
    # compares rounds taken under the same machine conditions
    for k in range(max(2 if trace else 1, round(seconds / spec.round_s))):
        # each round starts from a collected heap, as a fresh process would
        gc.collect()
        if trace and k % 2 == 1:
            tracer.install()
            try:
                traced.append(workload.run_round(tracer.span))
            finally:
                tracer.uninstall()
        else:
            rounds.append(workload.run_round())

    failures = workload.model_checks()
    everything = rounds + traced
    attempted = sum(r.operations for r in everything)
    failures += [f for r in everything for f in r.failures]
    if trace:
        if spans_path is not None:
            tracer.dump(spans_path)
        metrics = per_layer_metrics(tracer.spans, traced, rounds)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(rounds)
        units = END_TO_END
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "failures": failures,
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.tiny:
        spec = spec.tiny()
    result = run(spec, input_files(args.inputs), args.seed, args.seconds,
                 bool(args.trace), args.inputs, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
