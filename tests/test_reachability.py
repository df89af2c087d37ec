"""Every code object in src is entered by a fixed set of CLI runs, and every
top-level class is loaded by name, apart from a short allow-list.

The runs (the traffic) are ``tests/traffic.py``, executed in a fresh
process under a call hook; ``traffic`` is a session fixture in
conftest.py. A code object is a module or class body, a function, method,
property, lambda or comprehension. Function-level reachability does not
see dead branches inside a function that runs.
"""

import dis
import inspect
import sys
import types

import pytest

import traffic as traffic_runs

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="needs code objects' co_qualname")

# Code the traffic never enters, each with its reason. An entry also covers
# the code nested in it; an anonymous code object is named with its line.
# This list should only shrink.
ALLOWED = {
    "model.DialogPrediction.probabilities":
        "read by perfbench's checks (c) and (d) until they read `scores`",
    "model.ParameterSet.names":
        "read by perfbench's checkpoint check (e)",
    "tensor.Tape.__len__":
        "perfbench/tracing.py counts a tape's nodes with it",
    "gradcheck.GradCheckReport.summary":
        "runs only when a gradient check fails; covered by "
        "test_verify.py::TestPlantedFaults",
    'cli.cmd_verify.<locals>.<genexpr>: '
    'names = ", ".join(r.name for r in failed)':
        "verify's failure listing; covered by test_cli.py::TestVerifyCommand"
        "::test_injected_gradient_bug_exits_5_naming_the_op",
    'train.train.<locals>.<genexpr>: '
    'ids = ", ".join(d.dialog_id for d in batch)':
        "the non-finite-gradient message; covered by test_train.py::"
        "TestTraining::test_non_finite_gradient_names_the_whole_batch",
}

LOADS = {"LOAD_NAME", "LOAD_GLOBAL", "LOAD_ATTR", "LOAD_METHOD"}


def src_code() -> dict:
    """Every code object compiled from the package, keyed as the traffic
    reports it, with its display name: (display name, code object)."""
    codes = {}
    for path in sorted(traffic_runs.PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        stack = [compile(source, str(path), "exec")]
        while stack:
            code = stack.pop()
            name = f"{path.stem}.{code.co_qualname}"
            if code.co_name.startswith("<") and code.co_name != "<module>":
                name += ": " + lines[code.co_firstlineno - 1].strip()
            codes[path.name, code.co_firstlineno, code.co_qualname] = (
                name, code)
            stack.extend(c for c in code.co_consts
                         if isinstance(c, types.CodeType))
    return codes


def loaded_names(code: types.CodeType) -> set:
    """Names the code reads, leaving out those it only imports or binds."""
    return {ins.argval for ins in dis.get_instructions(code)
            if ins.opname in LOADS}


def guard_faults(entered: set, allowed: dict) -> list:
    codes = src_code()
    reached = {codes[key][0] for key in entered if key in codes}
    loaded = set().union(*(loaded_names(codes[key][1])
                           for key in entered if key in codes))
    faults = []
    for (_, _, qualname), (name, code) in sorted(codes.items()):
        covered = any(name == entry or name.startswith(entry + ".<locals>.")
                      for entry in allowed)
        if name not in reached and not covered:
            faults.append(f"never entered: {name}")
        is_class_body = not code.co_flags & inspect.CO_OPTIMIZED \
            and code.co_name != "<module>"
        if is_class_body and "." not in qualname and qualname not in loaded:
            faults.append(f"class never loaded by name: {name}")
    known = {name for name, _ in codes.values()}
    for entry in allowed:
        if entry not in known:
            faults.append(f"allow-list entry names no code in src: {entry}")
        elif entry in reached:
            faults.append(f"allow-list entry is reached: {entry}")
    return faults


def test_traffic_reaches_all_src_but_the_allow_list(traffic):
    faults = guard_faults(traffic["entered"], ALLOWED)
    assert faults == [], "\n".join(faults)


def test_allow_list_is_short_and_gives_reasons():
    assert len(ALLOWED) <= 6
    assert all(reason.strip() for reason in ALLOWED.values())


def test_guard_names_what_a_smaller_traffic_misses(tmp_path):
    smaller = [run for run in traffic_runs.RUNS
               if run not in ("inspect", "verify")]
    faults = guard_faults(traffic_runs.launch(tmp_path, *smaller)["entered"],
                          ALLOWED)
    assert "never entered: cli.cmd_inspect" in faults
    assert "class never loaded by name: verify.CheckResult" in faults


@pytest.mark.parametrize("entry, named", [
    ("cli.cmd_retired", "allow-list entry names no code in src"),
    ("cli.cmd_train", "allow-list entry is reached"),
])
def test_stale_allow_list_entry_fails(traffic, entry, named):
    faults = guard_faults(traffic["entered"], {**ALLOWED, entry: "planted"})
    assert f"{named}: {entry}" in faults
