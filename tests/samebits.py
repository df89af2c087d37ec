"""Same bits, as one command: hash what source trees compute, and name the
first entry where two of them differ.

    python tests/samebits.py TREE [TREE] [--threads N] [--tiny]

For each TREE a fresh child process runs this script with
PYTHONPATH=TREE/src and OPENBLAS_NUM_THREADS and OMP_NUM_THREADS set to N
(default 1), and builds a manifest: the sha256 of every array's dtype,
shape and bytes, or of every file's bytes, in three groups.

- ``model``: eval scores, and the loss and every parameter gradient of one
  training-mode pass with dropout on, of every variant in ``model``'s
  table, on two seeded dialogs of 8 utterances x 15 tokens, one at 105 and
  one at 200 frames, at the paper's dimensions; and per variant its tape,
  the op names of both training-mode tapes in order, before ``backward``;
- ``cli``: the artifacts, exit codes and stdout of same-seed ``train``,
  ``eval`` and ``inspect`` runs of every variant on the marker corpus;
- ``ops``: the output and every adjoint of ``verify.op_scenarios`` at
  seeds 0 to 4.

With one tree it prints each group's size and digest; with two it prints
each group's first differing entry, or "same bits", and exits 1 when any
group differs. ``--tiny`` runs every group at small sizes, in about a
second per tree. Bits depend on the BLAS thread count, which is printed,
and on the CPU's BLAS kernels: compare trees on one machine.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GROUPS = ("model", "cli", "ops")

# The comparing process never imports banter, so no tree's code can leak
# into another's manifest: each child imports it from its own tree, inside
# the functions that build the manifest.

# the dialogs of the ``model`` group: utterances, tokens per utterance,
# frame counts, vocabulary size and dimensions
PAPER = {"utterances": 8, "tokens": 15, "frames": (105, 200), "vocab": 400,
         "dims": {}}
TINY = {"utterances": 2, "tokens": 4, "frames": (9, 14), "vocab": 20,
        "dims": {"d_text_in": 12, "d_hidden": 8, "head_hidden": 6}}


def digest(array) -> str:
    import numpy as np
    array = np.ascontiguousarray(array)
    header = f"{array.dtype.str} {array.shape} ".encode()
    return hashlib.sha256(header + array.tobytes()).hexdigest()


def seeded_dialogs(sizes: dict):
    """Two dialogs at the sizes' frame counts, and their embedding table."""
    import numpy as np
    from banter.data import Dialog, EmbeddingTable, UtteranceRecord

    rng = np.random.default_rng(2021)
    dim = sizes["dims"].get("d_text_in", 300)
    table = EmbeddingTable(dim)
    vocab = [f"w{k}" for k in range(sizes["vocab"])]
    for token in vocab:
        table.add(token, rng.normal(0.0, 0.3, size=dim))
    dialogs = []
    for frames in sizes["frames"]:
        utterances = [UtteranceRecord(
            uid=f"f{frames}_u{j}", speaker=f"s{j % 2}",
            tokens=[vocab[k] for k in rng.integers(0, len(vocab),
                                                   size=sizes["tokens"])],
            acoustic=rng.normal(0.0, 0.5, size=(frames, 128)),
            sarcasm=int(rng.integers(0, 2)), humor=int(rng.integers(0, 2)))
            for j in range(sizes["utterances"])]
        dialogs.append(Dialog(f"{frames}f", utterances))
    return dialogs, table


def model_group(tiny: bool) -> dict:
    import numpy as np
    from banter import model
    from banter.tensor import Tape, backward
    from banter.train import dialog_loss

    sizes = TINY if tiny else PAPER
    dialogs, table = seeded_dialogs(sizes)
    entries = {}
    for variant in model._VARIANTS:
        config = model.build_variant(variant, **sizes["dims"])
        params = model.init_parameters(config, np.random.default_rng(0))
        tapes = []
        for dialog in dialogs:
            where = f"{variant} {dialog.dialog_id}"
            scores = model.forward_dialog(config, params, dialog, table).scores
            for task in config.tasks:
                entries[f"{where} eval {task}"] = digest(scores[task].data)
            with Tape() as tape:
                prediction = model.forward_dialog(
                    config, params, dialog, table, training=True,
                    rng=np.random.default_rng(1))
                loss = dialog_loss(prediction, dialog, config.tasks)
                tapes.append(" ".join(node.op for node in tape._nodes))
                backward(loss)
            entries[f"{where} train loss"] = digest(loss.data)
            for name, tensor in params.items():
                entries[f"{where} grad {name}"] = (
                    "none" if tensor.grad is None else digest(tensor.grad))
                tensor.grad = None
        entries[f"{variant} tape"] = hashlib.sha256(
            "\n".join(tapes).encode()).hexdigest()
    return entries


def cli_group(tiny: bool) -> dict:
    from banter import model
    from banter.cli import main
    from synthdata import marker_corpus, write_config

    entries = {}
    with tempfile.TemporaryDirectory() as work:
        root = Path(work)
        if tiny:
            corpus, table = marker_corpus(root, n_dialogs=4,
                                          utterances_per_dialog=2, emb_dim=6,
                                          seed=0)
            keys = {"max_epochs": 1, "patience": 1}
        else:
            corpus, table = marker_corpus(root, n_dialogs=10,
                                          utterances_per_dialog=4, emb_dim=24,
                                          frames_low=20, frames_high=60,
                                          seed=0)
            keys = {"max_epochs": 3}
        for k, variant in enumerate(model._VARIANTS):
            run = root / f"v{k}"
            config = write_config(root / f"v{k}.cfg", corpus, table,
                                  out_dir=run / "train", variant=variant,
                                  seed=7, d_audio=128, **keys)
            scoring = ["--checkpoint", run / "train" / "model.ckpt",
                       "--data", corpus, "--embeddings", table]
            commands = {
                "train": ["train", "--config", config],
                "eval": ["eval", *scoring, "--out", run / "eval"],
                "inspect": ["inspect", *scoring, "--dialog-id", "d1",
                            "--out", run / "inspect"]}
            for command, argv in commands.items():
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed), \
                        contextlib.redirect_stderr(printed):
                    code = main([str(arg) for arg in argv])
                text = printed.getvalue().replace(work, "<work>")
                entries[f"{variant} {command} exit"] = str(code)
                entries[f"{variant} {command} stdout"] = hashlib.sha256(
                    text.encode()).hexdigest()
                # a run that failed may have written nothing
                for path in sorted((run / command).glob("*")):
                    entries[f"{variant} {command} {path.name}"] = \
                        hashlib.sha256(path.read_bytes()).hexdigest()
    return entries


def ops_group() -> dict:
    import numpy as np
    from banter.tensor import Tape, backward
    from banter.verify import op_scenarios

    entries = {}
    for seed in range(5):
        for key, (params, f) in op_scenarios(
                np.random.default_rng(seed)).items():
            with Tape():
                out = f(params)
                backward(out)
            entries[f"seed {seed} {key} output"] = digest(out.data)
            for name, tensor in params.items():
                entries[f"seed {seed} {key} adjoint {name}"] = (
                    "none" if tensor.grad is None else digest(tensor.grad))
    return entries


def build_manifest(tiny: bool) -> dict:
    """This process's manifest; run with the tree's src on PYTHONPATH."""
    import banter

    return {"banter": str(Path(banter.__file__).resolve().parent),
            "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "groups": {"model": model_group(tiny), "cli": cli_group(tiny),
                       "ops": ops_group()}}


def manifest_of(tree, threads: int = 1, tiny: bool = False) -> dict:
    """TREE's manifest, built in a fresh child process."""
    src = Path(tree).resolve() / "src"
    env = dict(os.environ, PYTHONPATH=str(src),
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    argv = [sys.executable, __file__, "--manifest"]
    proc = subprocess.run(argv + (["--tiny"] if tiny else []),
                          capture_output=True, text=True, env=env,
                          timeout=1800)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: the manifest run failed:\n{proc.stderr}")
    manifest = json.loads(proc.stdout)
    if Path(manifest["banter"]) != src / "banter":
        raise SystemExit(f"{tree}: the child imported banter from "
                         f"{manifest['banter']}, not from {src}")
    return manifest


def compare(first: dict, second: dict) -> list[str]:
    """Per group, its first differing entry or "same bits"."""
    lines = []
    for group in GROUPS:
        a, b = first["groups"][group], second["groups"][group]
        differ = [key for key in dict.fromkeys([*a, *b])
                  if a.get(key) != b.get(key)]
        if differ:
            lines.append(f"{group}: {len(differ)} of {len(a)} entries differ; "
                         f"first: {differ[0]}")
        else:
            lines.append(f"{group}: same bits ({len(a)} entries)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", help="one or two source trees")
    parser.add_argument("--threads", type=int, default=1,
                        help="OPENBLAS_NUM_THREADS for every tree "
                             "(default 1)")
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for a quick check")
    parser.add_argument("--manifest", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.manifest:
        json.dump(build_manifest(args.tiny), sys.stdout)
        return 0
    if len(args.trees) not in (1, 2):
        parser.error("give one or two source trees")
    manifests = [manifest_of(tree, args.threads, args.tiny)
                 for tree in args.trees]
    print(f"OPENBLAS_NUM_THREADS={args.threads}"
          + (", tiny sizes" if args.tiny else ""))
    for tree, manifest in zip(args.trees, manifests):
        print(f"{tree}: banter from {manifest['banter']}")
    if len(manifests) == 1:
        for group, entries in manifests[0]["groups"].items():
            whole = hashlib.sha256(json.dumps(entries).encode()).hexdigest()
            print(f"{group}: {len(entries)} entries, digest {whole[:16]}")
        return 0
    lines = compare(*manifests)
    print("\n".join(lines))
    same = all(": same bits" in line for line in lines)
    print("same bits" if same else "bits differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
