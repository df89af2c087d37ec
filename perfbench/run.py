"""Benchmark entry point: write seeded inputs, run one workload, report.

    python3 perfbench/run.py --workload full --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The inputs go to ``.perfbench_work/`` and
are deleted afterwards; a traced run leaves its spans in ``.perfbench_out/``.
The workload runs in a child process with ``src`` on its path and with
``MSHC_THREADS`` and the BLAS thread variables removed from its environment,
so the program's own thread default is what gets measured. The metrics are
printed one per line, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS, write_inputs  # noqa: E402

THREAD_VARIABLES = ("MSHC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
# a run, inputs included, must end well inside three minutes
TIME_LIMIT_S = 170.0


def main(argv=None) -> int:
    started = time.monotonic()
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the workload process and the inputs are still removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long inputs, for the benchmark's tests")
    args = parser.parse_args(argv)

    src = Path("src").resolve()
    if not (src / "banter" / "__init__.py").is_file():
        print(f"error: no banter sources at {src}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    if args.tiny:
        spec = spec.tiny()
    work = Path(".perfbench_work") / f"{spec.name}-{args.seed}-{os.getpid()}"
    command = [sys.executable, str(HERE / "workload.py"),
               "--workload", spec.name, "--inputs", str(work),
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    if args.trace:
        out = Path(".perfbench_out")
        out.mkdir(exist_ok=True)
        command += ["--spans", str(out / f"{spec.name}-seed{args.seed}.json")]
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    try:
        write_inputs(spec, args.seed, work)
        remaining = TIME_LIMIT_S - (time.monotonic() - started)
        child = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"error: workload {spec.name} ran past {TIME_LIMIT_S:.0f} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if child.returncode != 0:
        sys.stderr.write(child.stdout)
        print(f"error: workload {spec.name} exited with {child.returncode}",
              file=sys.stderr)
        return child.returncode if child.returncode > 0 else 1

    result = json.loads(child.stdout.strip().splitlines()[-1])
    for failure in result.pop("failures"):
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"workload {spec.name} ({spec.variant}), seed {args.seed}: "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"BLAS threads {result.pop('blas_threads')}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
