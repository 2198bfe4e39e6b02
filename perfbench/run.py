"""netstab benchmark: four seeded closed-loop workloads over the CLI.

    python3 perfbench/run.py --workload delayed_certify --seed 1 --seconds 20 --trace 0

One process, one caller: each round runs the workload's jobs back to back
through ``netstab.cli.run(argv)`` (or a library call), on ``.net`` files
generated from ``--seed``.  Set-up writes a pool of rounds, each on its
own inputs; rounds run in order until ``--seconds`` of measured time have
passed (wrapping round the pool if there is time left).  A short
netstab-free probe times the host before each set-up and every
``PROBE_EVERY_S`` between jobs; each job and set-up is scaled by
``PROBE_REF_S`` over the median of the ``PROBE_NEAREST`` probes nearest
to it in time, so ``wall_s`` (one round, averaged over the rounds run)
and ``setup_s`` read in seconds of a host running at the reference speed.
Every output is checked between rounds, outside every timed region,
against references computed without netstab (``refs.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced rounds with traced replays (``replay.py``) and prints the
per-layer metrics.  The last stdout line is the JSON result; the lines
before it summarize the run, and the run directory under
``.perfbench_out/`` keeps the output digests (and the spans when traced).

netstab is imported from ``src/`` of the checkout this file sits in, and
nowhere else.  See README.md in this directory.
"""

import os

# one caller, no helper threads: BLAS would otherwise start one per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ".perfbench_out"

sys.path.insert(0, str(HERE))
import refs  # noqa: E402
import workloads  # noqa: E402

# set-up runs once before the first round and SETUP_REPEATS - 1 more times
# spread over the measured time (into a scratch directory), so that
# setup_s, the median, sees the same machine as the rounds do
SETUP_REPEATS = 9
MIN_ROUNDS = 3  # the output digest covers these rounds, whatever the run length

# The host probe: an interpreter loop and a small numpy power iteration,
# the two kinds of work the workloads spend their time in.  On shared
# 2-vCPU VMs the speed of the whole machine drifts by +-25 % over tens of
# seconds, for minutes at a time; scaling by the probe takes out most of
# that (README.md, "Machine noise").  PROBE_REF_S only sets the scale: it is
# the probe's median on the 2-vCPU x86 VM the benchmark was built on.
PROBE_REF_S = 0.0100
PROBE_EVERY_S = 0.2
PROBE_NEAREST = 5
PROBE_LOOP = 100_000
PROBE_MATRIX = np.random.default_rng(0).random((200, 200))
PROBE_STEPS = 1000


def _import_netstab():
    """Import netstab afresh from this checkout's src/ and nowhere else."""
    if not (SRC / "netstab" / "__init__.py").is_file():
        print(f"error: no netstab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "netstab" or m.startswith("netstab.")]:
        del sys.modules[name]
    netstab = importlib.import_module("netstab")
    importlib.import_module("netstab.cli")
    if Path(netstab.__file__).resolve().parent != (SRC / "netstab").resolve():
        print(f"error: imported netstab from {netstab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _setup_pass(workload: str, seed: int, where: Path):
    """One set-up: import netstab afresh, write every round's inputs into
    the emptied directory ``where``; returns (rounds, start, seconds)."""
    where.mkdir(exist_ok=True)
    for path in where.iterdir():
        if path.is_file():
            path.unlink()
    t0 = time.perf_counter()
    _import_netstab()
    rounds = [workloads.build_round(workload, seed, r, where)
              for r in range(workloads.POOL_ROUNDS[workload])]
    return rounds, t0, time.perf_counter() - t0


def _probe() -> tuple[float, float]:
    """(start, seconds) of one host probe; the seconds are the geometric
    mean of its two halves."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    t1 = time.perf_counter()
    x = np.ones(PROBE_MATRIX.shape[0])
    for _ in range(PROBE_STEPS):
        x = PROBE_MATRIX @ x
        x = x / x.max()
    t2 = time.perf_counter()
    return t0, ((t1 - t0) * (t2 - t1)) ** 0.5


def _scaled(probes: list[tuple[float, float]], start: float, seconds: float) -> float:
    """``seconds`` measured at ``start``, scaled to the reference speed by
    the median of the probes nearest in time."""
    near = sorted(probes, key=lambda p: abs(p[0] - start))[:PROBE_NEAREST]
    return seconds * PROBE_REF_S / statistics.median(s for _, s in near)


# ---------------------------------------------------------------------------
# running and reading back one job


def _run_job(job) -> tuple[bool, str]:
    """Run one job; (ok, stdout).  ok is False when it raised or exited
    non-zero; the benchmark keeps going either way."""
    from netstab import cli
    from netstab.network import load_network
    from netstab.sim import find_fixed_point

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            if job.argv is not None:
                code = cli.run(job.argv)
            else:
                net = load_network(job.net_path.read_text(), name_hint=job.net_path.stem)
                x = find_fixed_point(net, job.spec["guess"])
                print(json.dumps([float(v) for v in x]))
                code = 0
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failed job is counted, not fatal
        print(f"job {job.id} raised {exc!r}", file=sys.stderr)
        code = None
    if code != 0:
        print(f"job {job.id} exited with {code!r}: {buf.getvalue()[-200:]!r}", file=sys.stderr)
    return code == 0, buf.getvalue()


def _collect(job, stdout: str) -> dict:
    """Digests of everything the job wrote, plus what the checks need.
    Large outputs are deleted once read."""
    got = {"digests": {"stdout": refs.sha256(stdout)}, "stdout": stdout}
    texts = {kind: path.read_text() for kind, path in job.outputs.items()}
    for kind, text in texts.items():
        got["digests"][kind] = refs.sha256(text)
    if job.verb == "analyze":
        report = json.loads(texts["report"])
        got.update(rho=report["rho"], verdict=report["verdict"], dim=len(report["indices"]))
        job.outputs["report"].unlink()
    elif job.verb == "restrict":
        got["nodes"] = [ln.split()[1] for ln in texts["net"].splitlines() if ln.startswith("node ")]
    elif job.verb == "sets":
        got["rows"] = json.loads(texts["sets"])["sets"]
    elif job.verb == "simulate":
        got["verdict"] = json.loads(texts["verdict"])
        T = refs.ring_window(job.spec)
        got["csv_head"] = "\n".join(texts["csv"].splitlines()[: T + refs.CSV_STEPS + 1]) + "\n"
        got["window"] = refs.parse_csv(got["csv_head"])[:T, 1:]
        for path in job.outputs.values():
            path.unlink()
    elif job.verb == "fixed_point":
        got["x"] = json.loads(stdout)
    return got


def _run_round(jobs, probes) -> list[tuple[bool, str, float, float]]:
    """Run the jobs back to back, probing the host between them when
    ``PROBE_EVERY_S`` has passed; (ok, stdout, start, seconds) for each."""
    runs = []
    for job in jobs:
        if time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
            probes.append(_probe())
        t0 = time.perf_counter()
        ok, stdout = _run_job(job)
        runs.append((ok, stdout, t0, time.perf_counter() - t0))
    return runs


# ---------------------------------------------------------------------------
# checks (between rounds, outside every timed region)


def _check(job, got: dict) -> tuple[list[str], bool | None]:
    """(errors, rho missed?) for one job; the miss is None for jobs
    without a spectral radius."""
    spec = job.spec
    kind = spec["kind"]
    if job.verb == "analyze":
        first = got["stdout"].splitlines()[0].split()
        if first[-1] != got["verdict"]:
            return [f"stdout verdict {first[-1]} != report verdict {got['verdict']}"], None
        if kind == "ring":
            return refs.check_certify(spec, got, refs.spectral_radius(refs.ring_companion(spec)))
        if kind == "diamond_restricted":
            ref = refs.diamond_path_sum(spec)
            errors = refs.check_rho(got, ref, "restricted")
        else:
            ref = refs.spectral_radius(refs.diamond_matrix(spec))
            errors = refs.check_rho(got, ref, "direct")
        return errors, refs.rho_missed(got["rho"], ref)
    if job.verb == "restrict":
        if got["nodes"] != ["s"]:
            return [f"restriction onto s kept nodes {got['nodes']}"], None
        return [], None
    if job.verb == "sets":
        return refs.check_sets(spec, got["rows"], got["stdout"]), None
    if job.verb == "simulate":
        return refs.check_simulation(spec, got["verdict"], got["csv_head"]), None
    return refs.check_fixed_point(spec, got["x"]), None


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    # jobs run inside the run directory on bare file names, so what they
    # print does not depend on where the checkout or the run directory is
    run_dir = Path(OUT) / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    (ROOT / run_dir).mkdir(parents=True, exist_ok=True)
    os.chdir(ROOT / run_dir)
    probes = [_probe()]  # (start, seconds) of each host probe
    rounds, *first_setup = _setup_pass(args.workload, args.seed, Path("."))
    setups = [first_setup]  # (start, seconds) of each set-up

    import replay  # netstab must be importable first

    tracer = replay.Tracer()
    timed = []  # (pool index, [(start, seconds) of each job]) per untraced round
    overheads, layer_rows = [], []
    executed: list[str] = []  # job id of each untraced run and replay
    failures: dict[str, list[str]] = {}
    digests: dict[str, dict] = {}
    first_rounds: dict[str, dict] = {}
    misses: list[bool] = []  # rho missed its reference, per checked analyze job

    def settle(job, ok: bool, got: dict | None, rnd: int) -> None:
        """Count one execution.  A job's first output is checked against
        the references here, between rounds and outside every timed
        region, and only its digests are kept, so memory does not grow
        with the run.  A job that ran twice (the pool wrapped) must have
        written the same bytes."""
        executed.append(job.id)
        if not ok:
            failures.setdefault(job.id, []).extend(
                got["errors"] if got else ["raised or exited non-zero"])
        elif "digests" not in got:
            return  # a replay that matched
        elif job.id in digests:
            if digests[job.id] != got["digests"]:
                failures.setdefault(job.id, []).append("repeated run wrote different bytes")
        else:
            digests[job.id] = got["digests"]
            if rnd < MIN_ROUNDS:
                first_rounds[job.id] = got["digests"]
            try:
                errors, miss = _check(job, got)
            except (ValueError, LookupError, TypeError) as exc:
                errors, miss = [f"malformed output: {exc!r}"], None
            if errors:
                failures.setdefault(job.id, []).extend(errors)
            if miss is not None:
                misses.append(miss)

    measured = 0.0
    pool = len(rounds)
    r = 0
    while r < MIN_ROUNDS or measured < args.seconds:
        jobs = rounds[r % pool]
        runs = _run_round(jobs, probes)
        timed.append((r % pool, [(start, seconds) for *_, start, seconds in runs]))
        wall = sum(seconds for *_, seconds in runs)
        measured += wall
        untraced = []  # (job, ok, got)
        for job, (ok, stdout, *_) in zip(jobs, runs):
            got = None
            if ok:
                try:
                    got = _collect(job, stdout)
                except (OSError, ValueError, LookupError) as exc:
                    ok, got = False, {"errors": [f"unreadable output: {exc!r}"]}
            untraced.append((job, ok, got))
        replays = []
        if args.trace:
            first = len(tracer.spans)
            t0 = time.perf_counter()
            for job, ok, got in untraced:
                if not ok:
                    continue
                try:
                    errors = replay.replay(tracer, job, got, r)
                except Exception as exc:  # a failed replay is counted, not fatal
                    errors = [f"replay raised {exc!r}"]
                replays.append((job, errors))
            traced = time.perf_counter() - t0
            measured += traced
            spans = tracer.spans[first:]
            overheads.append(traced - replay.shadow_seconds(spans) - wall)
            layer_rows.append(replay.round_metrics(spans))
            for job, _ in replays:
                for path in job.outputs.values():  # the replay rewrote them
                    path.unlink(missing_ok=True)
        for job, ok, got in untraced:
            settle(job, ok, got, r)
        for job, errors in replays:
            settle(job, not errors, {"errors": errors}, r)
        r += 1
        while len(setups) < SETUP_REPEATS and measured >= len(setups) * args.seconds / SETUP_REPEATS:
            probes.append(_probe())
            setups.append(_setup_pass(args.workload, args.seed, Path("setup"))[1:])
    while len(setups) < SETUP_REPEATS:
        probes.append(_probe())
        setups.append(_setup_pass(args.workload, args.seed, Path("setup"))[1:])
    scaled: dict[int, list[float]] = {}  # pool index -> its scaled rounds
    for index, jobs_timed in timed:
        scaled.setdefault(index, []).append(sum(_scaled(probes, *t) for t in jobs_timed))
    wall_s = statistics.mean(statistics.mean(v) for v in scaled.values())
    setup_s = statistics.median(_scaled(probes, *t) for t in setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(executed)
    failed = sum(1 for job_id in executed if job_id in failures)
    rho_miss_rate = sum(misses) / len(misses) if misses else 0.0

    outputs_sha256 = refs.sha256(json.dumps(first_rounds, sort_keys=True))
    Path("run.json").write_text(json.dumps({"rounds": timed, "probes": probes,
                                            "setups": setups, "digests": digests},
                                           sort_keys=True, indent=1) + "\n")
    if args.trace:
        tracer.write("spans.jsonl")

    for job_id, errors in sorted(failures.items()):
        for err in errors:
            print(f"FAILED {job_id}: {err}")
    print(f"workload {args.workload} seed {args.seed}: {r} rounds ({len(scaled)} of the "
          f"{pool} in the pool), {attempted} jobs, peak RSS {peak_rss_mb:.1f} MB")
    print(f"unscaled medians: probe {statistics.median(s for _, s in probes):.5f} s, "
          f"round {statistics.median(sum(s for _, s in t) for _, t in timed):.4f} s, "
          f"set-up {statistics.median(s for _, s in setups):.4f} s")
    print(f"error_rate {failed / attempted:.4g} ({failed}/{attempted} jobs), "
          f"rho_miss_rate {rho_miss_rate:.4g} ({sum(misses)}/{len(misses)} analyze jobs)")
    print(f"outputs_sha256 {outputs_sha256} (rounds 0-{MIN_ROUNDS - 1}; "
          f"per-job digests in {run_dir / 'run.json'})")

    if args.trace:
        print(f"spans in {run_dir / 'spans.jsonl'}; shadow spans re-run a hidden layer's "
              "public function on the same input and are left out of trace.overhead_s")
        metrics = {name: statistics.median(row[name] for row in layer_rows)
                   for name in layer_rows[0]}
        metrics["trace.overhead_s"] = statistics.median(overheads)
        metrics["spectral.rho_miss_rate"] = rho_miss_rate
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        metrics = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
