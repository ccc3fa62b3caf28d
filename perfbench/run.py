"""mopareto benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up imports the package from `src/`
and writes the workload's seeded inputs (several times; the median is
`setup_s`).  Then one client runs the workload's fixed job list in a closed
loop, each job a `mopareto.cli.main(argv)` call in this process, until S
seconds have passed (at least one whole pass).  Every job's output is
gated outside the timed region, and every later run of a job must repeat
its first output byte for byte.

Times are reported in reference seconds (see hostclock.py); the raw wall
times are printed alongside and reported by the traced run.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
passes with traced passes (see stages.py) and prints the per-layer metrics.
The last line of stdout is the JSON result; the metric names and units are
those of BENCHMARK.json, and the run fails if they differ.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
# re-imported with the package on every set-up; gate and stages are imported
# only after set-up, so that they bind the final import
BENCH_MODULES = ("workloads", "gate", "stages")
COMMANDS = ("compute", "verify", "min", "stats")
# On a 2-vCPU shared host the same n=3000 grid job ranged from 0.45 s to
# 0.89 s, in phases of seconds, on either vCPU, with process CPU time moving
# alike: the noise comes from the host, hence reference seconds and per-job
# medians over many passes.
HOST_NOISE = ("host noise: on a 2-vCPU shared host one n=3000 grid job ranged 0.45-0.89 s "
              "on either vCPU, CPU time alike")


def _fresh_import():
    """Import the package and the benchmark's own modules from scratch."""
    for name in list(sys.modules):
        if name == "mopareto" or name.startswith("mopareto.") or name in BENCH_MODULES:
            del sys.modules[name]
    cli = importlib.import_module("mopareto.cli")
    return cli, importlib.import_module("workloads")


def set_up(workload: str, seed: int, folder: Path, clock: HostClock):
    """Import plus input generation, SETUP_REPS times; medians in reference seconds."""
    setup_times, gen_times = [], []
    for _ in range(SETUP_REPS):
        clock.probe()
        t0 = time.perf_counter()
        cli, workloads = _fresh_import()
        jobs, gen_s = workloads.build(workload, seed, folder)
        t1 = time.perf_counter()
        clock.probe()
        factor = clock.factor(t0, t1)
        setup_times.append((t1 - t0) * factor)
        gen_times.append(gen_s * factor)
    return cli, jobs, statistics.median(setup_times), statistics.median(gen_times)


class Runs:
    """Per-job samples, first outputs and failures of the untraced CLI calls."""

    def __init__(self, jobs, clock: HostClock):
        self.jobs = jobs
        self.clock = clock
        self.spans = [[] for _ in jobs]  # (start, wall seconds) of every run
        self.first = [None] * len(jobs)  # (exit code, stdout, stderr, file bytes, output)
        self.failed = [0] * len(jobs)
        self.samples: list[list[float]] = []  # reference seconds, filled by finish()

    def run(self, cli, j: int) -> None:
        job = self.jobs[j]
        if job.out is not None:
            job.out.unlink(missing_ok=True)
        self.clock.tick()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(job.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code = None
                traceback.print_exc()
            seconds = time.perf_counter() - t0
        written = job.out.read_bytes() if job.out is not None and job.out.exists() else None
        output = out.getvalue().encode() + (written or b"")
        self.spans[j].append((t0, seconds))
        if self.first[j] is None:
            self.first[j] = (code, out.getvalue(), err.getvalue(), written, output)
        elif (code, output) != (self.first[j][0], self.first[j][4]):
            self.failed[j] += 1

    def finish(self) -> None:
        self.clock.probe()
        self.samples = [[s * self.clock.factor(t0, t0 + s) for t0, s in spans]
                        for spans in self.spans]

    def gate(self, gate) -> list[str]:
        """Check every job's first output; a failing job fails all its runs."""
        problems = []
        for j, job in enumerate(self.jobs):
            code, stdout, stderr, written, _ = self.first[j]
            try:
                reason = gate.check(job, code, stdout, stderr, written)
            except Exception as exc:  # a malformed output must not stop the run
                reason = f"gate could not read the output: {exc!r}"
            if reason is not None:
                self.failed[j] = len(self.spans[j])
                problems.append(f"{job.name}: {reason}")
            elif self.failed[j]:
                problems.append(f"{job.name}: {self.failed[j]} runs differ from the first")
        return problems

    def command_seconds(self, command: str | None = None) -> float:
        """Sum over the jobs (of one command) of the median reference time per job."""
        return sum(statistics.median(s) for job, s in zip(self.jobs, self.samples)
                   if command in (None, job.command))

    def wall_command_seconds(self) -> float:
        return sum(statistics.median(s for _, s in spans) for spans in self.spans)

    def solutions_per_second(self) -> float:
        """Σ n over the job list, divided by the pass time that command_seconds() gives."""
        return sum(job.n for job in self.jobs) / self.command_seconds()

    def digest(self) -> str:
        h = hashlib.sha256()
        for job, first in zip(self.jobs, self.first):
            h.update(f"{job.name}\0{first[0]}\0".encode() + first[4])
        return h.hexdigest()

    def report(self) -> list[str]:
        lines = []
        for job, s, spans in zip(self.jobs, self.samples, self.spans):
            if job.command != "min":
                wall = statistics.median(w for _, w in spans)
                lines.append(f"  {job.name} {job.command} {job.algo or ''}: median "
                             f"{statistics.median(s):.4f} ref s (wall {wall:.4f} s) over "
                             f"{len(s)} runs, ref min {min(s):.4f} max {max(s):.4f}")
        mins = [statistics.median(s) for job, s in zip(self.jobs, self.samples) if job.command == "min"]
        if mins:
            lines.append(f"  {len(mins)} min jobs: {sum(mins):.4f} ref s summed medians")
        return lines


def untraced(cli, jobs, seconds: float, clock: HostClock) -> Runs:
    runs = Runs(jobs, clock)
    deadline = time.perf_counter() + seconds
    done = 0
    while done < len(jobs) or time.perf_counter() < deadline:
        runs.run(cli, done % len(jobs))
        done += 1
    runs.finish()
    return runs


def _traced_pass(clock: HostClock, jobs, runs: Runs, mismatches: list[str]):
    """Every job layer by layer; (reference seconds, counts, reference wall) of the pass."""
    import stages

    spans = []
    for j, job in enumerate(jobs):
        clock.tick()
        tr = stages.Trace()
        t0 = time.perf_counter()
        try:
            output = stages.run(tr, job)
        except Exception as exc:
            mismatches.append(f"{job.name}: traced run failed: {exc!r}")
            output = None
        spans.append((t0, time.perf_counter(), tr))
        if output is not None and output != runs.first[j][4]:
            mismatches.append(f"{job.name}: traced output differs from the CLI output")
    clock.probe()
    seconds = dict.fromkeys(stages.TIME_METRICS, 0.0)
    counts = dict.fromkeys(stages.COUNT_METRICS, 0)
    wall = 0.0
    for t0, t1, tr in spans:
        factor = clock.factor(t0, t1)
        for name, value in tr.seconds.items():
            seconds[name] += value * factor
        for name, value in tr.counts.items():
            counts[name] += value
        wall += (t1 - t0) * factor
    return seconds, counts, wall


def traced(cli, jobs, seconds: float, clock: HostClock):
    """Alternate whole untraced and traced passes until the time is up."""
    runs = Runs(jobs, clock)
    passes, mismatches = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        for j in range(len(jobs)):
            runs.run(cli, j)
        passes.append(_traced_pass(clock, jobs, runs, mismatches))
    runs.finish()
    if any(counts != passes[0][1] for _, counts, _ in passes):
        mismatches.append("counts differ between traced passes")
    return runs, passes, mismatches


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(workload: str, runs: Runs, passes, gen_s: float) -> dict[str, float]:
    import stages

    values: dict[str, float] = {
        name: statistics.median(seconds[name] for seconds, _, _ in passes)
        for name in stages.TIME_METRICS
    }
    c = passes[0][1]
    values.update(c)
    values["grid.retained_per_cell"] = _ratio(c["grid.retained_cells"], c["grid.cells"])
    values["dominance.arcs_per_pair"] = _ratio(c["dominance.arcs"], c["dominance.pairs"])
    values["oracles.gap_yes_per_query"] = _ratio(c["oracles.gap_yes"], c["oracles.gap_queries"])
    values["domsets.greedy_over_exact"] = _ratio(
        c["domsets.greedy_on_exact_members"], c["domsets.exact_min_members"])
    for command in COMMANDS:
        values[f"cmd_{command}_s"] = runs.command_seconds(command)
    values["generators.gen_s"] = gen_s
    values["wall.command_s"] = runs.wall_command_seconds()
    values["host.probe_s"] = runs.clock.probe_seconds()
    command_s = runs.command_seconds()
    values["trace.overhead_s"] = statistics.median(wall for _, _, wall in passes) - command_s
    intended = sum(values[name] for name in stages.INTENDED_LAYER[workload])
    values["trace.intended_share"] = _ratio(intended, command_s)
    return values


def main(argv: list[str] | None = None) -> int:
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description="mopareto benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mopareto" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'mopareto'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    clock = HostClock()
    with tempfile.TemporaryDirectory(dir=work, prefix=f"{args.workload}-") as folder:
        try:
            cli, jobs, setup_s, gen_s = set_up(args.workload, args.seed, Path(folder), clock)
        except Exception as exc:  # ConfigError, or inputs that cannot be made
            print(f"perfbench: set-up failed: {exc!r}", file=sys.stderr)
            return 2
        if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"perfbench: imported {cli.__file__}, not the checkout", file=sys.stderr)
            return 2
        if args.trace:
            runs, passes, mismatches = traced(cli, jobs, args.seconds, clock)
            values = layer_metrics(args.workload, runs, passes, gen_s)
        else:
            runs, passes, mismatches = untraced(cli, jobs, args.seconds, clock), [], []
            values = {
                "command_s": runs.command_seconds(),
                "solutions_per_s": runs.solutions_per_second(),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
        import gate

        problems = runs.gate(gate) + mismatches

    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[key]}
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(jobs)} jobs, "
          f"setup {setup_s:.4f} ref s (median of {SETUP_REPS}), host probe "
          f"{clock.probe_seconds() * 1000:.2f} ms")
    for line in runs.report():
        print(line)
    if args.trace:
        import stages

        print(f"  {len(passes)} traced passes; tracing overhead {values['trace.overhead_s']:.4f} "
              f"ref s per pass over {runs.command_seconds():.4f} untraced")
        print(f"  intended layer {'+'.join(stages.INTENDED_LAYER[args.workload])}: "
              f"{values['trace.intended_share']:.1%} of command time")
        print(f"  {HOST_NOISE}")
    for problem in problems:
        print(f"  FAILED {problem}")
    print(f"outputs {args.workload} seed {args.seed} sha256 {runs.digest()}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(map(len, runs.spans)) + len(jobs) * len(passes),
        "failed": sum(runs.failed) + len(mismatches),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
