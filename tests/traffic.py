"""The reachability guard's traffic: a fixed set of banter CLI runs, made
under a call hook.

    PYTHONPATH=src python tests/traffic.py OUT.json WORKDIR [RUN ...]

runs the named runs (every run in RUNS when none is named) in this process
and writes OUT.json. It holds the code objects of the banter package that
the runs entered, as [file name, first line, qualified name], and, when
the ``verify`` run is made, that run's exit code, printed listing and
seconds. The hook is installed before banter is imported, so module
bodies, class bodies and import-time calls count. The tests call
``launch``, which runs this script in a fresh process.
"""

import sys

if __name__ == "__main__":
    entered = set()
    # a global trace function sees only "call" events; returning None (what
    # set.add returns) traces no lines inside the frame
    sys.settrace(lambda frame, event, arg: entered.add(frame.f_code))

# as a script, the imports below run under the hook
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import runpy  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import banter  # noqa: E402
from banter.cli import main  # noqa: E402
from synthdata import marker_corpus, sidecar_copy, write_config  # noqa: E402

PACKAGE = Path(banter.__file__).resolve().parent

# the three benchmark variants and their run-file keys beyond SMALL_KEYS;
# the audio-only one reads sidecar frames
VARIANTS = {
    "full": ("full", {}),
    "flat": ("LSTM(A)+LSTM(T_avg)", {}),
    "audio-hier": ("LSTM(H-ATN^A)+C-ATN^D", {"d_audio": 128}),
}
SIDECAR_VARIANT = "audio-hier"


def banter_cli(*argv) -> tuple[int, str]:
    """``banter argv``'s exit code and what it printed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), \
            contextlib.redirect_stderr(printed):
        code = main([str(arg) for arg in argv])
    return code, printed.getvalue()


def cli(expected: int, *argv) -> None:
    """``banter argv``, which must end in exit code ``expected``."""
    code, printed = banter_cli(*argv)
    if code != expected:
        raise SystemExit(f"banter {' '.join(map(str, argv))} exited {code}, "
                         f"expected {expected}:\n{printed}")


class Workspace:
    def __init__(self, root: Path):
        self.root = root
        self.corpus, self.embeddings = marker_corpus(
            root, n_dialogs=8, utterances_per_dialog=4, emb_dim=12, seed=0)
        self.sidecar_corpus = sidecar_copy(self.corpus, root / "sidecar")

    def run_dir(self, variant: str) -> Path:
        return self.root / variant

    def corpus_for(self, variant: str) -> Path:
        return (self.sidecar_corpus if variant == SIDECAR_VARIANT
                else self.corpus)

    def scoring_args(self, variant: str) -> list:
        return ["--checkpoint", self.run_dir(variant) / "model.ckpt",
                "--data", self.corpus_for(variant),
                "--embeddings", self.embeddings]


def run_train(ws: Workspace) -> None:
    for variant, (row, keys) in VARIANTS.items():
        cfg = write_config(ws.root / f"{variant}.cfg",
                           ws.corpus_for(variant), ws.embeddings,
                           out_dir=ws.run_dir(variant), variant=row, **keys)
        cli(0, "train", "--config", cfg)


def run_eval(ws: Workspace) -> None:
    for variant in VARIANTS:
        cli(0, "eval", *ws.scoring_args(variant),
            "--out", ws.run_dir(variant) / "eval")


def run_inspect(ws: Workspace) -> None:
    for variant in VARIANTS:
        cli(0, "inspect", *ws.scoring_args(variant), "--dialog-id", "d0",
            "--out", ws.run_dir(variant) / "inspect")


def run_missing_run_file(ws: Workspace) -> None:
    cli(2, "train", "--config", ws.root / "missing.cfg")


def run_non_numeric_embedding(ws: Workspace) -> None:
    lines = ws.embeddings.read_text(encoding="utf-8").splitlines()
    token, *values = lines[3].split(" ")
    lines[3] = " ".join([token, "x", *values[1:]])
    bad = ws.root / "non_numeric.txt"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cli(3, "train", "--config",
        write_config(ws.root / "non_numeric.cfg", ws.corpus, bad))


def run_diverging(ws: Workspace) -> None:
    cli(4, "train", "--config",
        write_config(ws.root / "diverging.cfg", ws.corpus, ws.embeddings,
                     lr="1e300"))


def run_module_help(ws: Workspace) -> None:
    """``python -m banter train --help``."""
    argv = sys.argv
    sys.argv = ["banter", "train", "--help"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module("banter", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise
    finally:
        sys.argv = argv


def run_verify(ws: Workspace) -> dict:
    """Its result is kept: the verify tests read it, whatever the code."""
    start = time.monotonic()
    code, listing = banter_cli("verify")
    return {"code": code, "listing": listing,
            "seconds": time.monotonic() - start}


# in run order: eval and inspect read train's checkpoints
RUNS = {
    "train": run_train,
    "eval": run_eval,
    "inspect": run_inspect,
    "exit 2": run_missing_run_file,
    "exit 3": run_non_numeric_embedding,
    "exit 4": run_diverging,
    "module help": run_module_help,
    "verify": run_verify,
}


def run_traffic(out_path: str, workdir: str, *names: str) -> None:
    unknown = set(names) - set(RUNS)
    if unknown:
        raise SystemExit(f"unknown runs {sorted(unknown)}; known: "
                         f"{', '.join(RUNS)}")
    ws = Workspace(Path(workdir))
    document = {}
    for name, run in RUNS.items():
        if not names or name in names:
            result = run(ws)
            if result is not None:
                document[name] = result
    sys.settrace(None)
    # co_qualname is new in Python 3.11, as is the guard that reads it
    document["entered"] = sorted(
        {(Path(code.co_filename).name, code.co_firstlineno,
          getattr(code, "co_qualname", code.co_name)) for code in entered
         if Path(code.co_filename).resolve().parent == PACKAGE})
    Path(out_path).write_text(json.dumps(document, indent=0) + "\n",
                              encoding="utf-8")


def launch(workdir: Path, *runs: str) -> dict:
    """This script's document for the named runs (every run when none is
    named), made in a fresh process; ``entered`` holds tuples."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([inherited] if inherited else []))
    out = workdir / "traffic.json"
    proc = subprocess.run(
        [sys.executable, __file__, str(out), str(workdir), *runs],
        capture_output=True, text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    document = json.loads(out.read_text(encoding="utf-8"))
    document["entered"] = {tuple(key) for key in document["entered"]}
    return document


if __name__ == "__main__":
    run_traffic(*sys.argv[1:])
