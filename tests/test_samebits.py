"""``tests/samebits.py`` at tiny sizes: its manifest covers every variant and
its tape, a tree matches itself, and a one-ulp change to one op is caught."""

import shutil
from pathlib import Path

import pytest

import samebits
from banter import model

REPO = Path(samebits.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def manifest():
    return samebits.manifest_of(REPO, tiny=True)


def test_manifest_names_every_variant(manifest):
    assert manifest["threads"] == "1"
    assert manifest["banter"] == str(REPO / "src" / "banter")
    for group in ("model", "cli"):
        named = {entry.split(" ")[0] for entry in manifest["groups"][group]}
        assert named == set(model._VARIANTS)
    # the op names of each variant's training-mode tapes
    for variant in model._VARIANTS:
        assert f"{variant} tape" in manifest["groups"]["model"]


def test_a_tree_against_itself_is_same_bits(manifest, monkeypatch, capsys):
    # the fixture's manifest and a second one from another child
    manifests = iter([manifest, samebits.manifest_of(REPO, tiny=True)])
    monkeypatch.setattr(samebits, "manifest_of",
                        lambda tree, threads, tiny: next(manifests))
    assert samebits.main([str(REPO), str(REPO), "--tiny"]) == 0
    printed = capsys.readouterr().out
    for group in samebits.GROUPS:
        assert (f"\n{group}: same bits ({len(manifest['groups'][group])} "
                f"entries)\n") in printed
    assert printed.endswith("\nsame bits\n")


def test_a_one_ulp_change_to_scale_is_caught(manifest, tmp_path):
    shutil.copytree(REPO / "src" / "banter", tmp_path / "src" / "banter",
                    ignore=shutil.ignore_patterns("__pycache__"))
    tensor_py = tmp_path / "src" / "banter" / "tensor.py"
    source = tensor_py.read_text(encoding="utf-8")
    planted = source.replace("    c = float(c)\n",
                             "    c = float(c) * (1 + 2**-52)\n")
    assert planted != source
    tensor_py.write_text(planted, encoding="utf-8")
    lines = samebits.compare(manifest,
                             samebits.manifest_of(tmp_path, tiny=True))
    by_group = dict(line.split(": ", 1) for line in lines)
    assert by_group["ops"].endswith("first: seed 0 scale output")
    # every H-ATN level goes through it
    assert " differ; first: LSTM(H-ATN^A) " in by_group["model"]
