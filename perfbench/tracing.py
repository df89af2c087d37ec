"""Spans around the program's public functions, for the traced run.

``Tracer.install()`` replaces each traced function in the module namespace
its callers look it up in, so the program files stay untouched. A span
records its name, start and end, its parent span and the active tape's
length before and after the call. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

from banter import data, model, train
from banter.tensor import active_tape

# (module, attribute, span name); a function is wrapped in every module its
# callers read it from. The benchmark itself calls through data, model and
# train, so those attributes are wrapped too.
TRACED = (
    (model, "hier_attend", "hier_attention.hier_attend"),
    (model, "acoustic_encode", "encoders.acoustic_encode"),
    (model, "lstm_encode_dialog", "encoders.lstm_encode_dialog"),
    (model, "contextualize_dialog", "context_attention.contextualize_dialog"),
    (model, "filter_modality", "fusion.filter_modality"),
    (model, "embed_utterance", "data.embed_utterance"),
    (model, "forward_dialog", "model.forward_dialog"),
    (train, "forward_dialog", "model.forward_dialog"),
    (train, "backward", "tensor.backward"),
    (train, "clip_gradients", "optim.clip_gradients"),
    (train, "adam_step", "optim.adam_step"),
    (train, "evaluate_split", "train.evaluate_split"),
    (train, "train", "train.train"),
    (data, "load_corpus", "data.load_corpus"),
    (data, "load_embeddings", "data.load_embeddings"),
    (data, "split_train_val", "data.split_train_val"),
    (model, "init_parameters", "model.init_parameters"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (model, "save_checkpoint", "model.save_checkpoint"),
)


def _tape_length() -> int:
    tape = active_tape()
    return 0 if tape is None else len(tape)


class Span:
    __slots__ = ("name", "parent", "start", "end", "tape_before",
                 "tape_after")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.tape_before = self.tape_after = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = Span(name, self._stack[-1] if self._stack else -1)
        self.spans.append(record)
        self._stack.append(index)
        record.tape_before = _tape_length()
        record.start = time.perf_counter()
        try:
            yield
        finally:
            record.end = time.perf_counter()
            record.tape_after = _tape_length()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self) -> None:
        for module, attr, name in TRACED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.as_dict() for s in self.spans], fh)


def self_times(spans: list[Span]) -> tuple[list[float], list[int]]:
    """Per span: duration minus its children's, tape growth minus theirs."""
    seconds = [s.end - s.start for s in spans]
    nodes = [s.tape_after - s.tape_before for s in spans]
    for s in spans:
        if s.parent >= 0:
            seconds[s.parent] -= s.end - s.start
            nodes[s.parent] -= s.tape_after - s.tape_before
    return seconds, nodes


def ancestors(spans: list[Span], index: int) -> set[str]:
    names = set()
    parent = spans[index].parent
    while parent >= 0:
        names.add(spans[parent].name)
        parent = spans[parent].parent
    return names
