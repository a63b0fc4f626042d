"""Benchmark of the weakmodel command-line interface.

    python3 perfbench/run.py --workload classify_mix --seed 1 --seconds 25 --trace 0

Runs one workload's seeded job list through `weakmodel.cli.main` in this
process: one client that waits for each command, the way a researcher runs
them.  Every job's output is checked against the analytic truth.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 each job runs once untraced and once traced, and the
JSON carries the per-layer metrics.  `--workload all` runs every workload,
each in a fresh process.  See perfbench/README.md.
"""

import os

# One BLAS/OpenMP thread, set before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"            # scratch job directories and span files

# Set-up probes are spread evenly over the job list, so that their median is
# not taken in one slow or fast phase of a shared host.
SETUP_PROBES = 7
# Stop starting jobs this long after launch, so a run ends within 180 s even
# when the program under test has become much slower.
DEADLINE_S = 120.0
TAIL_BEYOND = 10

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class Outcome:
    seconds: float
    code: int | None              # None when the command raised
    error: str = ""
    problems: list = field(default_factory=list)
    warnings: int = 0
    factor: float = 1.0           # machine slowdown around the command (speed.py)
    defect: str | None = None     # None if clean, else a checks.KNOWN_DEFECTS class
                                  # or checks.UNEXPECTED

    @property
    def failed(self):
        return self.code is None or self.code == 1

    @property
    def norm(self):
        """Latency at reference speed."""
        return self.seconds / self.factor


def tail(samples):
    """(value, percentile) with TAIL_BEYOND samples above it, or None."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    idx = n - TAIL_BEYOND - 1
    return sorted(samples)[idx], 100.0 * (idx + 1) / n


def load_cli():
    """Import weakmodel.cli from this checkout's src/, and only from there."""
    sys.path.insert(0, str(SRC))
    import weakmodel.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "weakmodel").resolve():
        raise SystemExit(f"error: weakmodel imported from {cli.__file__}")
    return cli


def setup_probe(workload, path):
    """Seconds for a fresh process to import the CLI and run a warm-up job."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(path), *workloads.warmup_args(workload)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return time.perf_counter() - t0


def write_inputs(jobs, inputs):
    """Sample each tabulated job's closed family into its --warp-csv file."""
    import numpy as np
    from weakmodel.warp import family_from_name

    inputs.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if job.tabulated is None:
            continue
        tab = job.tabulated
        w = family_from_name(tab["family"], **tab["params"])
        grid = np.geomspace(1e-4, tab["top"], tab["nodes"])
        path = inputs / f"warp{job.id:03d}.csv"
        with open(path, "w") as fh:
            fh.write("r,phi,dphi,ddphi\n")
            for row in zip(grid, *w.eval(grid)):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        job.args = job.args + ["--warp-csv", str(path)]


class Runner:
    """Runs jobs in order through cli.main, optionally inside trace spans."""

    def __init__(self, cli, root, tracer=None):
        self.cli = cli
        self.root = root
        self.tracer = tracer
        self.outcomes = {}

    def out_dir(self, job_id):
        return self.root / f"job{job_id:03d}"

    def argv(self, job):
        argv = [job.command, *job.args, "--out", str(self.out_dir(job.id))]
        if job.solve_id is not None and self.outcomes[job.solve_id].code == 0:
            argv += ["--artifacts", str(self.out_dir(job.solve_id))]
        return argv

    def run(self, job):
        argv = self.argv(job)
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, ""
        tracer = self.tracer
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.job_id = job.id
                span = tracer.open(tracer.name_id("cli"))
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed job; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
        error = error or stderr.getvalue().strip()
        out = self.out_dir(job.id)
        problems = checks.check(job, code, str(out), stdout.getvalue())
        outcome = Outcome(seconds, code, error, problems, len(caught))
        outcome.defect = checks.defect(job, outcome.failed, error, problems)
        self.outcomes[job.id] = outcome
        return outcome

    def files(self):
        """(job id, relative path, path) of every file the CLI wrote, sorted."""
        for job_id in sorted(self.outcomes):
            base = self.out_dir(job_id)
            if base.is_dir():
                for path in sorted(p for p in base.rglob("*") if p.is_file()):
                    yield job_id, path.relative_to(base).as_posix(), path


def digest_and_bytes(runner):
    """SHA-256 over every file the CLI wrote, in job order, and their total size."""
    h = hashlib.sha256()
    size = 0
    for job_id, rel, path in runner.files():
        n = path.stat().st_size
        size += n
        h.update(f"{job_id}/{rel}\0{n}\0".encode())
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest(), size


def run_jobs(cli, jobs, work, trace, deadline, workload):
    """Run the jobs in order, with SETUP_PROBES set-up probes between them.

    Returns the untraced and traced runners and the probe seconds."""
    plain = Runner(cli, work / "plain")
    traced = None
    if trace:
        traced = Runner(cli, work / "traced", tracing.Tracer())
    probe_before = [i * len(jobs) // SETUP_PROBES for i in range(SETUP_PROBES)]
    probes = []
    reference = speed.Reference()
    timed = []
    for index, job in enumerate(jobs):
        if time.monotonic() > deadline:
            break
        for _ in range(probe_before.count(index)):
            probes.append(setup_probe(workload, work / f"probe{len(probes)}"))
        timed.append(plain.run(job))
        reference.mark()
        if traced is not None:
            patch = tracing.instrument(traced.tracer)
            try:
                timed.append(traced.run(job))
            finally:
                patch.restore()
            reference.mark()
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload, work / f"probe{len(probes)}"))
    for i, outcome in enumerate(timed):
        outcome.factor = reference.factor(i)
    return plain, traced, probes


def command_lines(jobs, outcomes):
    """Per-command latency lines: p50 and tail with its percentile and count."""
    lines = []
    by_command = {}
    for job in jobs:
        if job.id in outcomes:
            by_command.setdefault(job.command, []).append(outcomes[job.id].norm)
    for command in ("sweep", "classify", "solve", "verify"):
        secs = by_command.get(command)
        if not secs:
            continue
        if command == "sweep":
            lines.append(("sweep_s", sum(secs), "s", ""))
            continue
        lines.append((f"{command}_p50_s", statistics.median(secs), "s", f"n={len(secs)}"))
        t = tail(secs)
        if t is None:
            lines.append((f"{command}_tail_s", float("nan"), "s",
                          f"n={len(secs)}: fewer than {TAIL_BEYOND + 1} samples"))
        else:
            lines.append((f"{command}_tail_s", t[0], "s",
                          f"p{t[1]:.1f}, n={len(secs)}"))
    return lines


def print_lines(lines):
    for name, value, unit, note in lines:
        print(f"  {name:<42} {value:>14.6g} {unit:<11} {note}".rstrip())


def report_outcomes(jobs, outcomes):
    """Print each failed or wrong job and return per-class counts:
    {class: [failed, wrong]} over checks.KNOWN_DEFECTS and checks.UNEXPECTED."""
    counts = {name: [0, 0] for name in (*checks.KNOWN_DEFECTS, checks.UNEXPECTED)}
    for job in jobs:
        o = outcomes.get(job.id)
        if o is None or o.defect is None:
            continue
        counts[o.defect][0] += o.failed
        counts[o.defect][1] += bool(o.problems)
        label = f"{o.defect}: job {job.id} {job.command} {' '.join(job.args)}"
        if o.failed:
            print(f"  failed {label}: "
                  f"{o.error.splitlines()[-1] if o.error else f'exit {o.code}'}")
        for problem in o.problems:
            print(f"  wrong  {label}: {problem}")
    return counts


def run_workload(args):
    start = time.monotonic()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        cli = load_cli()
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cli.main(workloads.warmup_args(args.workload) + ["--out", str(work / "warmup")])
        budget = args.seconds / 2.0 if args.trace else float(args.seconds)
        jobs = workloads.make_jobs(args.workload, args.seed, budget)
        write_inputs(jobs, work / "inputs")
        plain, traced, probes = run_jobs(cli, jobs, work, args.trace, start + DEADLINE_S,
                                         args.workload)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        digest, size = digest_and_bytes(plain)
        primary = traced or plain
        outcomes = primary.outcomes
        attempted = len(outcomes)
        failed = sum(o.failed for o in outcomes.values())
        wrong = sum(bool(o.problems) for o in outcomes.values())
        truncated = attempted < len(jobs)
        done = list(plain.outcomes.values())
        latencies = [o.norm for o in done]
        factors = [o.factor for o in done]

        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
              f"trace {args.trace}: {attempted} of {len(jobs)} jobs run")
        if truncated:
            print(f"  deadline of {DEADLINE_S:g} s reached: the run is incomplete "
                  f"and reports correct false")
        counts = report_outcomes(jobs, outcomes)
        print("  failed/wrong jobs by class: " + ", ".join(
            f"{name} {f}/{w}" for name, (f, w) in counts.items()))
        print(f"  times at reference speed; machine slowdown factor median "
              f"{statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f}")
        lines = [("setup_s", statistics.median(probes), "s",
                  f"median of {SETUP_PROBES} fresh processes, not rescaled"),
                 ("wall_s", sum(latencies), "s", f"{len(latencies)} jobs; raw "
                  f"{sum(o.seconds for o in done):.4g} s"),
                 ("job_p50_s", statistics.median(latencies), "s",
                  f"raw {statistics.median(o.seconds for o in done):.4g} s")]
        lines += command_lines(jobs, plain.outcomes)
        lines += [("failed_frac", failed / attempted, "frac", f"{failed}/{attempted}"),
                  ("wrong_frac", wrong / attempted, "frac", f"{wrong}/{attempted}"),
                  ("peak_rss_mb", peak_rss_mb, "MB", "")]
        print_lines(lines)
        print(f"  digest sha256:{digest} ({size} bytes in reports and artifacts)")

        if args.trace:
            tracer = traced.tracer
            t_digest, t_size = digest_and_bytes(traced)
            plain_s = sum(o.norm for o in plain.outcomes.values())
            traced_s = sum(o.norm for o in outcomes.values())
            extra = {"extend_commands": sum(j.command in ("solve", "verify")
                                            for j in jobs if j.id in outcomes),
                     "bytes_written": t_size,
                     "warnings": sum(o.warnings for o in outcomes.values()),
                     "overhead_s": traced_s - plain_s}
            values = tracing.layer_metrics(tracer, extra)
            span_file = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
            tracer.write(str(span_file))
            print(f"  traced digest sha256:{t_digest}; {len(tracer.start)} spans "
                  f"written to {span_file.relative_to(ROOT)}")
            print_lines([(name, values[name], unit, "")
                         for name, unit, _ in tracing.PER_LAYER])
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in tracing.PER_LAYER}
        else:
            values = {name: value for name, value, _, _ in lines}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
        unexpected_failed, unexpected_wrong = counts[checks.UNEXPECTED]
        return {"correct": unexpected_wrong == 0 and unexpected_failed == 0
                and not truncated,
                "attempted": attempted, "failed": unexpected_failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args):
    """Each workload in its own fresh process; the last line maps workload to result."""
    results, code = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weakmodel" / "__init__.py").is_file():
        print(f"error: no weakmodel package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
