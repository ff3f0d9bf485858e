#!/usr/bin/env python3
"""maskaug benchmark: one workload, timed for a fixed span, outputs checked.

    python3 bench/run.py --workload wide-train --seed 1 --seconds 35 --trace 0

Run from the repository root. The script imports maskaug from ``src/`` next
to it and builds its inputs from ``--seed``. It repeats iterations of a
fresh set-up plus one round of the workload while another fits in
``--seconds``, after one untimed warm-up iteration that runs the whole
output gate. Timings are medians over iterations; throughputs are work over
time pooled across the run.

``--trace 0`` prints every end-to-end metric. ``--trace 1`` alternates
untraced and traced iterations and prints every per-layer metric, plus the
tracing overhead; traced iterations must reproduce the untraced output
digest. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Per-run files (result,
spans) go to ``.bench-runs/`` in the working directory.

BLAS runs on one thread and nothing runs in parallel.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("wide-train", "wide-infer", "tiny-pipeline")

# (name, unit, better, bound): the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pipeline_s", "s", "lower", 0.25),
    ("train_tokens_per_s", "tok/s", "higher", 0.25),
    ("augment_sents_per_s", "sent/s", "higher", 0.25),
    ("style_sents_per_s", "sent/s", "higher", 0.25),
    ("style_ms_p50", "ms", "lower", 0.25),
    ("style_ms_p90", "ms", "lower", 0.25),
    ("cnn_examples_per_s", "ex/s", "higher", 0.25),
    ("lstm_examples_per_s", "ex/s", "higher", 0.25),
    ("mlm_val_loss", "nat", "lower", 0.15),
    ("clf_test_acc", "fraction", "higher", 0.15),
)

BLAS_THREADS = 1
# a set-up sample repeats the set-up for at least this long and takes the mean
# of one, so that a few-millisecond set-up does not sample a single moment of
# the host's speed swings
SETUP_SAMPLE_S = 0.3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy sizes, one set-up (smoke test)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(np, scipy, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(np),
        "git_commit": git_commit(ROOT),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def timed(fn, *args):
    gc.collect()  # collect the previous round's garbage outside the timed span
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    """The median, or NaN (which fails the run) when a stage left no sample."""
    return statistics.median(values) if values else math.nan


def end_to_end(rec, setup_times, round_times) -> dict[str, float]:
    style = rec.samples["style_ms"]
    if len(style) > 1:
        p50, p90 = statistics.quantiles(style, n=10, method="inclusive")[4::4]
    else:
        p50 = p90 = median(style)
    def rate(name):
        units, seconds = rec.work[name]
        return units / seconds if seconds else math.nan

    return {
        "setup_s": median(setup_times),
        "pipeline_s": median(round_times),
        "train_tokens_per_s": rate("train_tokens_per_s"),
        "augment_sents_per_s": rate("augment_sents_per_s"),
        "style_sents_per_s": rate("style_sents_per_s"),
        "style_ms_p50": p50,
        "style_ms_p90": p90,
        "cnn_examples_per_s": rate("cnn_examples_per_s"),
        "lstm_examples_per_s": rate("lstm_examples_per_s"),
        "mlm_val_loss": median(rec.samples["mlm_val_loss"]),
        "clf_test_acc": median(rec.samples["clf_test_acc"]),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "maskaug" / "__init__.py").is_file():
        print(f"error: no maskaug sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads BLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import maskaug
    if Path(maskaug.__file__).resolve().parent != (SRC / "maskaug").resolve():
        print(f"error: imported maskaug from {maskaug.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads as W

    workload = W.WORKLOADS[args.workload]
    sizes = workload.toy if args.toy else workload.sizes
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}-{os.getpid()}"
    run_dir = Path.cwd() / ".bench-runs" / run_id
    workdir = run_dir / "work"
    env = environment(np, scipy, args.seed)
    rec = W.Recorder()
    tracer = tracing.Tracer(run_id) if args.trace else None
    digests: list[str] = []
    setup_times: list[float] = []
    round_times = {False: [], True: []}  # traced? -> seconds per round

    def phase(traced: bool, name: str, fn, *args):
        if not traced:
            return timed(fn, *args)
        with tracer.installed(maskaug, name):
            return timed(fn, *args)

    def setup_sample():
        """Set up again until SETUP_SAMPLE_S have passed; the last set-up and
        the mean seconds of one."""
        gc.collect()
        count, start = 0, time.perf_counter()
        while True:
            setup = W.run_setup(workload, sizes, args.seed, workdir, rec)
            count += 1
            total = time.perf_counter() - start
            if total >= SETUP_SAMPLE_S:
                return setup, total / count

    def iteration(traced: bool, warmup: bool = False) -> float:
        """A fresh set-up, then one round on it; returns their seconds."""
        before = (rec.attempted, rec.failed)
        rec.warmup = warmup
        if traced:  # one set-up, so that per-layer counts stay per iteration
            setup, setup_seconds = phase(True, "setup", W.run_setup, workload, sizes, args.seed, workdir, rec)
        else:
            setup, setup_seconds = setup_sample()
        p, seconds = phase(traced, "round", W.run_round, workload, sizes, setup, rec)
        digest = W.output_digest(p)
        if digests and digest != digests[0]:
            # every iteration must reproduce the fully checked warm-up byte for byte
            ops = rec.attempted - before[0]
            rec.fail(0, ops - (rec.failed - before[1]), f"iteration {len(digests) + 1} output digest differs")
        digests.append(digest)
        if not warmup:
            setup_times.append(setup_seconds)
            round_times[traced].append(seconds)
        return setup_seconds + seconds

    try:
        # an untimed first iteration fills caches and runs the whole output gate
        iteration(traced=False, warmup=True)
        deadline = time.perf_counter() + args.seconds
        last = 0.0  # start an iteration only if one as long as the last still fits
        while not round_times[bool(tracer)] or time.perf_counter() + last < deadline:
            # traced runs alternate untraced and traced iterations, so both see
            # the same conditions
            traced = tracer is not None and len(round_times[False]) > len(round_times[True])
            last = iteration(traced)
    except W.RunAborted as exc:
        rec.problems.append(f"run aborted: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    complete = bool(round_times[False]) and (tracer is None or bool(round_times[True]))
    if tracer is None:
        metrics = end_to_end(rec, setup_times, round_times[False]) if complete else {}
        units = {name: unit for name, unit, _, _ in END_TO_END}
    else:
        metrics = {}
        if complete:
            overhead = 100.0 * (
                statistics.median(round_times[True]) / statistics.median(round_times[False]) - 1.0
            )
            metrics = tracing.per_layer_values(tracer, {
                **rec.outcomes, "trace.overhead_pct": overhead, "peak_rss_mb": peak_rss_mb(),
            })
        units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
    finite = all(math.isfinite(v) for v in metrics.values())
    correct = complete and finite and rec.failed == 0 and not rec.problems

    print(f"bench {args.workload} seed={args.seed} trace={args.trace} toy={int(args.toy)} "
          f"run_id={run_id}")
    print("env " + json.dumps(env, sort_keys=True))
    agree = "all iterations agree" if len(set(digests)) == 1 else "ITERATIONS DISAGREE"
    print(f"digest sha256:{digests[0] if digests else '-'} ({agree}, {len(digests)} iterations)")
    style = rec.samples["style_ms"]
    for name, value in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"median of {len(setup_times)} set-up samples"
        elif name == "pipeline_s":
            note = f"median of {len(round_times[False])} rounds"
        elif name in rec.work:
            done, seconds = rec.work[name]
            note = f"{done:.0f} over {seconds:.2f} s"
        elif name.startswith("style_ms_"):
            beyond = len(style) - round(len(style) * 0.9)
            note = f"{len(style)} transfer_style calls, {beyond} beyond p90"
        elif name in ("tensor.matmul.gflop", "tensor.matmul.bwd_tmp_mb"):
            note = "computed from operand shapes, not measured"
        print(f"  {name:40s} {value:>16.6g} {units[name]:<15s} {note}")
    if tracer is None:
        print(f"  {'cond_label_compat':40s} {rec.outcomes.get('augment.cond_label_compat', 0.0):>16.6g} "
              f"{'fraction':<15s} cbert refills of label-word slots that keep the label's words")
    error_rate = rec.failed / rec.attempted if rec.attempted else 1.0
    print(f"  {'error_rate':40s} {error_rate:>16.6g} {'fraction':<15s} "
          f"{rec.failed} failed of {rec.attempted} operations")
    for problem in rec.problems:
        print(f"  problem: {problem}")

    run_dir.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.write(run_dir / "spans.json.gz")
    result = {
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail = {
        **result, "workload": args.workload, "env": env, "digests": digests,
        "round_seconds": round_times[False], "traced_round_seconds": round_times[True],
        "setup_seconds": setup_times, "outcomes": rec.outcomes, "problems": rec.problems,
    }
    (run_dir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
