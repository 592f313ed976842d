#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the TransPIM simulator.

    python3 perfbench/run.py --workload decode --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark builds ``transpim-sim``,
``sweep`` and its own in-process probe (``perfbench/probe``) in release
mode, generates the workload's requests from ``--seed``, and then:

* ``--trace 0``: issues the requests as CLI invocations in a closed loop
  (one client, one invocation at a time) in whole passes over the request
  pool for about ``--seconds``, verifies every output against an
  independent reference outside the timed region, and reports the
  ``end_to_end`` metrics of ``BENCHMARK.json``;
* ``--trace 1``: runs the same requests in-process under the probe's span
  recorder, plus one CLI pass for ``cli.overhead_ms``, and reports the
  ``per_layer`` metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
digest of every simulated statistic the run produced. Details go to
standard error. Generated inputs and outputs live in ``.bench_run/``; the
build goes to ``$CARGO_TARGET_DIR`` (default ``.bench_build/``).
"""

import argparse
import concurrent.futures
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checker  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_run"
SETUP_REPEATS = 5
INVOCATION_TIMEOUT_S = 60

DECODE_WORKLOADS = ("lm", "pubmed", "arxiv")
DATAFLOWS = ("token", "layer")
ARCHS = ("transpim", "transpim-nb")
# The paper's generated-token counts (Workload::lm/pubmed/arxiv).
PAPER_DECODE = {"lm": 128, "pubmed": 256, "arxiv": 192}
DECODE_STRATA = 16
DEGRADED_STRATA = 16
GRID_LENGTHS = {
    "roberta": (512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192),
    "pegasus": (1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384),
}
# Grid sizes as (requests per pass, lengths per request, stack counts):
# 16 to 64 cells over the 8 dataflow x architecture systems. A grid's host
# time follows its stack counts and hardly its lengths, so the seed draws
# the model and lengths while each size keeps its cost from run to run.
# The median request falls inside the middle size. The three largest
# grids stand well above the rest, so the tail reads their latency
# rather than the noise at the top of one size.
GRID_SIZES = ((16, 2, (8,)), (16, 3, (8,)), (16, 2, (4, 8)), (16, 3, (4, 8)),
              (13, 2, (1, 2, 4, 8)), (3, 4, (8, 16)))
# Seconds one pass over each workload's request pool takes on the
# reference host (2 vCPUs, Intel Xeon; see perfbench/README.md): the
# simulations in a pass over the baseline sims_per_s.
NOMINAL_PASS_S = {"decode": 15.9, "grid": 1.4, "observed": 10.0, "degraded": 7.9}
# Decode length of the warm-up invocations, per workload.
WARMUP_DECODE = {"decode": 256, "observed": 4, "degraded": 256}
JOBS = os.cpu_count() or 1
TOTAL_BANKS = 2048  # 8 stacks x 8 channels x 8 groups x 4 banks
TOTAL_GROUPS = 512


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Request generation. Every generator is a pure function of its RNG: the
# same seed gives the same requests and the same scenario files.


def strata(rng, lo, hi, k):
    """One uniform draw from each of ``k`` equal strata of [lo, hi]."""
    width = (hi - lo) / k
    return [int(lo + (i + rng.random()) * width) for i in range(k)]


def sim_request(rid, wl, decode, df, arch, out, faults=None, observe=False):
    req = {"id": rid, "workload": wl, "decode": decode, "dataflow": df, "arch": arch,
           "sims": 1}
    argv = ["transpim-sim", "--workload", wl, "--decode", str(decode), "--dataflow", df,
            "--arch", arch, "--json", str(out / f"{rid}.report.json")]
    outputs = {"report": str(out / f"{rid}.report.json")}
    if faults is not None:
        req["faults"] = str(faults)
        argv += ["--faults", str(faults)]
    if observe:
        req["observe"] = True
        outputs["trace"] = str(out / f"{rid}.trace.json")
        outputs["metrics"] = str(out / f"{rid}.metrics.json")
        argv += ["--trace", outputs["trace"], "--metrics", outputs["metrics"]]
    req["argv"] = argv
    req["outputs"] = outputs
    return req


def combos():
    return [(wl, df, arch) for wl in DECODE_WORKLOADS for df in DATAFLOWS for arch in ARCHS]


def gen_decode(rng, inputs, out):
    reqs = []
    for wl, df, arch in combos():
        # One request per combination, drawn by the seed, is checked against
        # the fully unrolled program; the others against in-process pricing
        # of the compressed one.
        unrolled = rng.randrange(DECODE_STRATA)
        reqs += [(wl, d, df, arch, k == unrolled)
                 for k, d in enumerate(strata(rng, 256, 4096, DECODE_STRATA))]
    rng.shuffle(reqs)
    made = []
    for i, (wl, d, df, arch, unroll) in enumerate(reqs):
        made.append(sim_request(f"decode-{i:03d}", wl, d, df, arch, out))
        made[-1]["unroll"] = unroll
    return made


def gen_observed(rng, inputs, out):
    reqs = []
    for wl, df, arch in combos():
        paper = PAPER_DECODE[wl]
        reqs.append((wl, int(paper * (1 + (rng.random() - 0.5) / 8)), df, arch))
    rng.shuffle(reqs)
    return [sim_request(f"observed-{i:03d}", *r, out, observe=True) for i, r in enumerate(reqs)]


def scenario(rng):
    """A fault scenario every degradation policy can absorb: SECDED ECC
    corrects every transient flip, fewer than all banks fail and fewer
    than all subarrays of a bank are stuck."""
    banks = rng.sample(range(TOTAL_BANKS), 12)
    groups = rng.sample(range(TOTAL_GROUPS), 6)
    faults = [{"FailedBank": {"bank": b}} for b in banks[: rng.randint(1, 4)]]
    faults += [{"StuckBitPlanes": {"bank": b, "planes": rng.randint(1, 16)}}
               for b in banks[4: 4 + rng.randint(1, 3)]]
    faults += [{"BrokenDivider": {"bank": b}} for b in banks[8: 8 + rng.randint(1, 4)]]
    faults += [{"DeadLink": {"group": g}} for g in groups[: rng.randint(1, 3)]]
    faults += [{"DegradedLink": {"group": g, "factor": round(rng.uniform(0.25, 0.9), 3)}}
               for g in groups[3: 3 + rng.randint(1, 3)]]
    faults.append({"TransientFlips": {"per_gib": round(rng.uniform(0.5, 4.0), 3)}})
    return {"seed": rng.randrange(1 << 32), "ecc": "Secded", "faults": faults}


def gen_degraded(rng, inputs, out):
    reqs = []
    for wl, df, arch in combos():
        for d in strata(rng, 256, 1024, DEGRADED_STRATA):
            reqs.append((wl, d, df, arch))
    rng.shuffle(reqs)
    made = []
    for i, r in enumerate(reqs):
        rid = f"degraded-{i:03d}"
        path = inputs / f"{rid}.faults.json"
        path.write_text(json.dumps(scenario(rng), indent=1))
        made.append(sim_request(rid, *r, out, faults=path))
    return made


def gen_grid(rng, inputs, out):
    sizes = [(n_len, stacks) for count, n_len, stacks in GRID_SIZES for _ in range(count)]
    reqs = []
    for i, (n_len, stacks) in enumerate(sizes):
        model = ("roberta", "pegasus")[i % 2]
        reqs.append((model, sorted(rng.sample(GRID_LENGTHS[model], n_len)), list(stacks)))
    rng.shuffle(reqs)
    return [grid_request(f"grid-{i:03d}", *r, out) for i, r in enumerate(reqs)]


def grid_request(rid, model, lengths, stacks, out):
    csv = str(out / f"{rid}.csv")
    return {
        "id": rid, "model": model, "lengths": lengths, "stacks": stacks, "jobs": JOBS,
        "sims": 8 * len(lengths) * len(stacks),
        "argv": ["sweep", "--model", model, "--lengths", ",".join(map(str, lengths)),
                 "--stacks", ",".join(map(str, stacks)), "--jobs", str(JOBS)],
        "stdout": csv,
        "outputs": {"csv": csv},
    }


GENERATORS = {"decode": gen_decode, "grid": gen_grid, "observed": gen_observed,
              "degraded": gen_degraded}


# --------------------------------------------------------------------------
# Building and invoking.


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Build the two CLIs and the probe; None on success, else the reason."""
    if not (ROOT / "Cargo.toml").is_file():
        return "no Cargo.toml at the checkout root: the simulator's sources are missing"
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "transpim-repro", "--bin",
         "transpim-sim", "-p", "transpim-bench", "--bin", "sweep"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         "perfbench/probe/Cargo.toml"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return f"{' '.join(cmd)} exited with {done.returncode}"
    return None


def binary(name):
    return str(target_dir() / "release" / name)


def invoke(req):
    """Run one CLI invocation in the foreground; return its record.

    Outputs are removed first, so a failed invocation can never pass on
    a previous one's files. Only the span from spawn to reaping is timed.
    """
    for path in req["outputs"].values():
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
    argv = [binary(req["argv"][0])] + req["argv"][1:]
    stdout_path = req.get("stdout", os.devnull)
    with open(stdout_path, "wb") as out, open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        watchdog.cancel()
        watchdog.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    outputs = {name: checker.sha256_file(path) for name, path in req["outputs"].items()}
    return {"id": req["id"], "ms": elapsed * 1e3, "rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode, "outputs": outputs}


def run_probe(*args):
    cmd = [binary("perfbench-probe"), *args]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode


# --------------------------------------------------------------------------
# Set-up, the timed loop and verification.


def setup(workload, seed):
    """Generate the requests and warm up; returns (requests, seconds)."""
    start = time.perf_counter()
    inputs, out = WORK / "in", WORK / "out"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    out.mkdir(parents=True, exist_ok=True)
    reqs = GENERATORS[workload](random.Random(seed), inputs, out)
    probe_view = [{k: v for k, v in r.items() if k not in ("argv", "outputs", "stdout")}
                  for r in reqs]
    (inputs / "requests.json").write_text(json.dumps({"requests": probe_view}, indent=1))
    for req in warmup(workload, inputs):
        invoke(req)
    return reqs, time.perf_counter() - start


def warmup(workload, inputs):
    """The warm-up invocations: the workload's binary and flags on every
    system it runs, at one fixed size (one fixed grid per grid size, one
    fixed fault scenario on degraded), so their cost does not depend on
    the seed. They run untimed and unverified."""
    out = WORK / "warmup"
    out.mkdir(exist_ok=True)
    if workload == "grid":
        models = ("roberta", "pegasus")
        return [grid_request(f"warmup-{i}", models[i % 2], list(GRID_LENGTHS[models[i % 2]][:n]),
                             list(stacks), out)
                for i, (_, n, stacks) in enumerate(GRID_SIZES)]
    faults = None
    if workload == "degraded":
        faults = inputs / "warmup.faults.json"
        faults.write_text(json.dumps(scenario(random.Random(0)), indent=1))
    return [sim_request(f"warmup-{i}", wl, WARMUP_DECODE[workload], df, arch, out,
                        faults=faults, observe=workload == "observed")
            for i, (wl, df, arch) in enumerate(combos())]


def passes(workload, seconds):
    """Passes over the request pool for a run of ``seconds``.

    Fixed from the nominal pass time, not measured: every run of a
    workload makes the same number of invocations whatever the machine's
    speed, so the tail percentile is always taken at the same rank.
    """
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def timed_passes(reqs, count):
    """``count`` whole passes over ``reqs``, so every request weighs the
    same in every run."""
    return [invoke(req) for _ in range(count) for req in reqs]


def references(reqs, tally):
    """Reference digests per request id, plus unrolled step counts.

    ``transpim-sim`` reports come from the probe's oracle; ``sweep`` CSVs
    from the same grid at ``--jobs 1``; observed traces and metrics must
    parse and be non-empty, and every invocation must have written the
    same bytes as the last one.
    """
    oracle = WORK / "oracle"
    shutil.rmtree(oracle, ignore_errors=True)
    ok = run_probe("oracle", str(WORK / "in" / "requests.json"), str(oracle)) == 0
    steps, cells = {}, {}
    if ok:
        steps = json.loads((oracle / "steps.json").read_text())
        cells = json.loads((oracle / "cells.json").read_text())
    # Trace documents are tens of MB each: parse them on every CPU.
    docs = [(req["id"], kind, req["outputs"][kind]) for req in reqs
            for kind in ("trace", "metrics") if kind in req["outputs"]]
    with concurrent.futures.ProcessPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        problems = pool.map(checker.check_document, [d[2] for d in docs], [d[1] for d in docs])
        documents = {(rid, kind): (path, problem)
                     for (rid, kind, path), problem in zip(docs, problems)}
    expected = {}
    for req in reqs:
        rid = req["id"]
        want = {}
        if "csv" in req["outputs"]:
            serial = dict(req, argv=req["argv"][:-1] + ["1"], stdout=str(WORK / "ref.csv"),
                          outputs={"csv": str(WORK / "ref.csv")})
            rec = invoke(serial)
            # The probe counts each grid's steps and times its layers from
            # its own copy of sweep's cells: a copy that drifted from the
            # CSV's rows makes the reference invalid.
            problem = (f"--jobs 1 reference exited with {rec['exit']}" if rec["exit"]
                       else checker.grid_layout_problem(WORK / "ref.csv", cells.get(rid)))
            if problem:
                tally.reasons.append(f"{rid}: {problem}")
            want["csv"] = None if problem else rec["outputs"]["csv"]
        else:
            want["report"] = checker.sha256_file(oracle / f"{rid}.json") if ok else None
        for kind in ("trace", "metrics"):
            if (rid, kind) in documents:
                path, problem = documents[(rid, kind)]
                if problem:
                    tally.reasons.append(f"{rid}: {problem}")
                want[kind] = None if problem else checker.sha256_file(path)
        expected[rid] = want
    return expected, steps


def verify(records, expected, tally):
    """Count every invocation; returns the records that passed."""
    passed = []
    for rec in records:
        problems = checker.invocation_problems(rec["exit"], rec["outputs"], expected[rec["id"]])
        tally.record(rec["id"], problems)
        if not problems:
            passed.append(rec)
    if not passed and any("report" in want for want in expected.values()):
        log("no report matched its reference: if the CLI runs, check that "
            "perfbench/probe/src/request.rs still mirrors transpim-sim's defaults")
    return passed


def load_metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end, per


def end_to_end(reqs, records, passed, steps, setup_s):
    """The end-to-end metrics of one run.

    Throughputs count verified work only. Their host time is one pass with
    each request at its median over the run's passes, so a burst of load
    from outside that hits one pass does not move them.
    """
    times = [r["ms"] for r in records]
    by_id = {}
    for r in records:
        by_id.setdefault(r["id"], []).append(r["ms"])
    pass_s = sum(statistics.median(ms) for ms in by_id.values()) / 1e3
    n_passes = len(records) / len(by_id)
    sims = {r["id"]: r["sims"] for r in reqs}
    tail_ms, pct, n = checker.tail(times)
    log(f"latency tail: p{pct:.1f} of {n} invocations")
    return {
        "sims_per_s": sum(sims[r["id"]] for r in passed) / n_passes / pass_s,
        "latency_p50_ms": statistics.median(times),
        "latency_tail_ms": tail_ms,
        "sim_steps_per_s": sum(int(steps.get(r["id"], 0)) for r in passed) / n_passes / pass_s,
        "setup_s": setup_s,
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }


def per_layer(records, expected, seconds, tally):
    """Per-layer metrics from the probe's traced run, plus
    ``cli.overhead_ms`` from the CLI pass; None if the probe failed."""
    traced = WORK / "traced-run"
    shutil.rmtree(traced, ignore_errors=True)
    code = run_probe("traced", str(WORK / "in" / "requests.json"), str(seconds), str(traced))
    if code != 0:
        log(f"traced run: probe exited with {code}")
        return None
    result = json.loads((traced / "traced.json").read_text())
    tally.merge(result["attempted"], result["failed"], result["failures"])
    # The reports the traced run priced must equal the references too.
    for rid, want in expected.items():
        if "report" in want:
            got = checker.sha256_file(traced / "reports" / f"{rid}.json")
            tally.record(f"traced {rid}",
                         checker.invocation_problems(0, {"report": got},
                                                     {"report": want["report"]}))
    cli = {}
    for rec in records:
        cli.setdefault(rec["id"], []).append(rec["ms"])
    overhead = [statistics.median(cli[rid]) - ms for rid, ms in result["inproc_ms"].items()]
    log(f"traced run: {result['passes']} passes, {result['attempted']} requests")
    return dict(result["metrics"], **{"cli.overhead_ms": statistics.median(overhead)})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    problem = build()
    if problem:
        log(f"build failed: {problem}")
        return 1
    end_units, layer_units = load_metric_units()
    WORK.mkdir(exist_ok=True)

    runs = [setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    reqs = runs[0][0]
    if any(r != reqs for r, _ in runs):
        log("request generation is not a function of the seed")
        return 1
    setup_s = statistics.median(t for _, t in runs)

    tally = checker.Tally()
    clock = time.perf_counter()
    # A traced run makes one CLI pass, for cli.overhead_ms.
    records = timed_passes(reqs, 1 if args.trace else passes(args.workload, args.seconds))
    log(f"{len(records)} invocations in {time.perf_counter() - clock:.1f} s")
    clock = time.perf_counter()
    expected, steps = references(reqs, tally)
    log(f"references in {time.perf_counter() - clock:.1f} s")
    passed = verify(records, expected, tally)

    if args.trace:
        metrics = per_layer(records, expected, args.seconds / 2, tally)
        if metrics is None:
            return 1
        units = layer_units
    else:
        metrics = end_to_end(reqs, records, passed, steps, setup_s)
        units = end_units

    digest = checker.digest((rid, name, value) for rid, want in expected.items()
                            for name, value in want.items())
    (WORK / f"digest-{args.workload}-{args.seed}.txt").write_text(digest + "\n")
    for reason in tally.reasons:
        log(f"FAILED {reason}")
    log(f"{args.workload} seed={args.seed}: {tally.attempted} attempted, {tally.failed} failed, "
        f"error_rate={tally.error_rate:.4f}")
    for name, value in metrics.items():
        log(f"  {name} = {value:.6g} {units.get(name, '')}")
    print(f"perfbench digest workload={args.workload} seed={args.seed} sha256={digest}")
    correct = tally.failed == 0
    # Observed traces are tens of MB each; keep only the small artifacts.
    shutil.rmtree(WORK / "out", ignore_errors=True)
    print(checker.result_line(correct, tally.attempted, tally.failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
