"""Benchmark of the ``fracdrift`` command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It runs the workload's commands the way
a user does, each in a fresh ``python3`` process with ``src`` on the path,
one job after another for about ``S`` seconds, and checks every output.

With ``--trace 0`` it reports, as medians over the jobs of the run:

* ``wall_s`` -- seconds from ``main()`` entry to return, summed over the
  job's commands;
* ``setup_s`` -- seconds from process spawn to ``main()`` ready (interpreter
  start and imports), summed over the job's commands;
* ``cpu_s`` -- user plus system CPU of the job's processes (``getrusage``);
* ``peak_rss_mb`` -- the largest peak RSS among the job's processes.

The error rate (failed commands over commands attempted) is printed with
them and carried by ``attempted``/``failed`` in the result.  With
``--trace 1`` untraced and traced jobs alternate; the traced ones time the
package's layer functions from outside (``layers.py``) and report the
per-layer metrics and the tracing overhead.  The last line of the output is
the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from check import (  # noqa: E402
    compare, deterministic_values, load_reference, output_digest, report_failures,
)
from layers import (  # noqa: E402
    COUNT_METRICS, DECLARED, IMPORT_MODULES, METRICS, OVERHEAD, Job, layer_values, uncovered_s,
)
from workloads import THREADS, WORKLOADS  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]

#: A run must end within 180 s; children still running after this are killed.
HARD_LIMIT_S = 165.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package, broken import, timeout)."""


@dataclass
class CommandRun:
    name: str
    code: int
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    record: dict | None = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class JobRun:
    traced: bool
    commands: list
    digests: dict

    def total(self, attr: str) -> float:
        return sum(getattr(c, attr) for c in self.commands)

    def metrics(self) -> dict[str, float]:
        return {"wall_s": self.total("wall_s"), "setup_s": self.total("setup_s"),
                "cpu_s": self.total("cpu_s"),
                "peak_rss_mb": max(c.rss_mb for c in self.commands)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_costs(stderr: str) -> dict[str, float]:
    """Seconds each fracdrift module's import cost, from ``-X importtime``.

    A module's cost is its cumulative import time minus that of the nearest
    fracdrift modules nested in it, so third-party imports are charged to the
    fracdrift module that first pulled them in.
    """
    nodes = []   # (level, name, cumulative_us, children) in completion order
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip())) // 2
        children = []
        while nodes and nodes[-1][0] > level:
            children.insert(0, nodes.pop())
        nodes.append((level, name.strip(), int(cumulative), children))

    costs = {}

    def nested_fracdrift(children):
        for level, name, cum, sub in children:
            if name in IMPORT_MODULES:
                yield cum
            else:
                yield from nested_fracdrift(sub)

    def visit(node_list):
        for level, name, cum, sub in node_list:
            if name in IMPORT_MODULES:
                costs[name] = (cum - sum(nested_fracdrift(sub))) / 1e6
            visit(sub)

    visit(nodes)
    return costs


def run_command(cmd, job_dir: Path, traced: bool, deadline: float) -> CommandRun:
    (job_dir / f"{cmd.name}.json").write_text(json.dumps(cmd.config))
    result = job_dir / f"{cmd.name}.result.json"
    log = job_dir / f"{cmd.name}.log"
    argv = [sys.executable, *(["-X", "importtime"] if traced else []),
            str(BENCH / "child.py"), str(result), *(["--trace"] if traced else []), "--",
            *cmd.args, "--config", f"{cmd.name}.json", "--out", cmd.name]
    with open(log, "wb") as out:
        spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=job_dir, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=out)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                raise BenchError(f"{cmd.name} did not finish within the run's time limit")
            time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = CommandRun(cmd.name, proc.returncode, cpu_s=usage.ru_utime + usage.ru_stime,
                     rss_mb=usage.ru_maxrss / 1024.0)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        run.problems.append(f"exit code {proc.returncode} {' '.join(tail)}".strip())
    if not result.exists():
        run.problems.append("no timing record")
        return run
    run.record = json.loads(result.read_text())
    run.setup_s = run.record["ready"] - spawn
    run.wall_s = run.record["main_end"] - run.record["main_start"]
    if traced:
        run.record["imports"] = import_costs(log.read_text(errors="replace"))
    return run


def run_job(workload, seed, job_dir, traced, toy, deadline, reference) -> JobRun:
    """One job; ``reference`` maps command name to its expected
    deterministic values (``None`` skips that comparison)."""
    job_dir.mkdir(parents=True)
    commands = workload.commands(seed, toy)
    runs = [run_command(cmd, job_dir, traced, deadline) for cmd in commands]
    for cmd, run in zip(commands, runs):
        out_dir = job_dir / cmd.name
        if not run.failed:
            run.problems += [f"check {name} failed" for name in report_failures(out_dir)]
        if not run.failed and reference is not None:
            run.problems += compare(deterministic_values(out_dir), reference.get(cmd.name, {}))
    digests = {cmd.name: output_digest(job_dir, [cmd]) for cmd in commands}
    return JobRun(traced, runs, digests)


def measure(name: str, seed: int, seconds: float, trace: bool, toy: bool = False,
            work: Path = WORK) -> list[JobRun]:
    """Run jobs for about ``seconds``; with ``trace`` alternate untraced and
    traced jobs, at least one of each."""
    workload = WORKLOADS[name]
    reference = load_reference(name, "toy" if toy else "full")
    work_dir = work / name
    shutil.rmtree(work_dir, ignore_errors=True)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    jobs: list[JobRun] = []
    while True:
        traced = trace and len(jobs) % 2 == 1
        jobs.append(run_job(workload, seed, work_dir / f"job{len(jobs):02d}", traced, toy,
                            deadline, reference))
        elapsed = time.monotonic() - start
        if len(jobs) >= (2 if trace else 1) and elapsed * (1 + 1 / len(jobs)) > seconds:
            return jobs


def judge(jobs: list[JobRun]) -> tuple[int, int, list[str]]:
    """(attempted, failed, run-level problems); marks outputs that differ
    from the run's first job as failures of the command that wrote them."""
    first = jobs[0].digests
    for job in jobs[1:]:
        for run in job.commands:
            if job.digests[run.name] != first[run.name]:
                run.problems.append("outputs differ from the first job of the run")
    problems = []
    traced = [Job([c.record for c in job.commands]) for job in jobs
              if job.traced and not any(c.failed for c in job.commands)]
    counts = [{k: layer_values(j)[k] for k in COUNT_METRICS} for j in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append(f"work counts differ between traced jobs: {counts}")
    runs = [run for job in jobs for run in job.commands]
    return len(runs), sum(run.failed for run in runs), problems


def median_metrics(jobs: list[JobRun]) -> dict[str, float]:
    values = [job.metrics() for job in jobs]
    return {k: statistics.median(v[k] for v in values) for k, _ in END_TO_END}


def layer_medians(jobs: list[JobRun]) -> dict[str, float | None]:
    """Median of each per-layer metric over the traced jobs (``None`` when
    absent) and the tracing overhead."""
    traced = [job for job in jobs if job.traced and not any(c.failed for c in job.commands)]
    per_job = [layer_values(Job([c.record for c in job.commands])) for job in traced]
    out = {}
    for metric in METRICS:
        values = [v[metric.name] for v in per_job if v[metric.name] is not None]
        out[metric.name] = statistics.median(values) if values else None
    plain = [job for job in jobs if not job.traced]
    out[OVERHEAD[0]] = (median_metrics(traced)["wall_s"] - median_metrics(plain)["wall_s"]
                        if traced and plain else None)
    return out


def machine_record(probe: dict, name: str, seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, **probe,
            "cli_threads": THREADS, "workload": name, "seed": seed}


def prepare() -> dict:
    """Check that the package is here, compile it and import it once."""
    if not (SRC / "fracdrift" / "cli.py").is_file():
        raise BenchError(f"no fracdrift package under {SRC}")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "fracdrift")],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    probe = subprocess.run([sys.executable, str(BENCH / "probe.py")], env=child_env(),
                           capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        raise BenchError(f"cannot import fracdrift: {probe.stderr.strip()[-400:]}")
    return json.loads(probe.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        machine = machine_record(prepare(), args.workload, args.seed)
        jobs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = judge(jobs)
    plain = [job for job in jobs if not job.traced]
    print("machine: " + json.dumps(machine, sort_keys=True))
    for job_no, job in enumerate(jobs):
        print(f"job {job_no} {'traced' if job.traced else 'untraced'}: "
              + " ".join(f"{k}={v:.4f}" for k, v in job.metrics().items()))
        for run in job.commands:
            for problem in run.problems:
                print(f"FAILED job {job_no} {run.name}: {problem}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced jobs, "
          f"{len(jobs) - len(plain)} traced")
    e2e = median_metrics(plain)
    for name, unit in END_TO_END:
        print(f"  {name:<14} {e2e[name]:12.4f} {unit:<5} median of n={len(plain)}")
    print(f"  {'error_rate':<14} {failed / attempted:12.4f} {'':<5} "
          f"{failed} of {attempted} commands")

    if args.trace:
        layers = layer_medians(jobs)
        traced = [job for job in jobs if job.traced]
        print(f"per-layer metrics, median of n={len(traced)} traced jobs:")
        for name, unit, _ in DECLARED:
            value = layers[name]
            shown = "absent" if value is None else f"{value:12.4f}"
            print(f"  {name:<34} {shown:>12} {unit}")
        for job in traced:
            for run in job.commands:
                if run.record is not None:
                    print(f"  cli.other_s[{run.name}] {uncovered_s(run.record):.4f} s")
        absent = sorted({a for job in traced for r in job.commands if r.record
                         for a in r.record["absent"]})
        if absent:
            print("  absent functions: " + ", ".join(absent))
        metrics = {name: {"value": 0.0 if layers[name] is None else layers[name], "unit": unit}
                   for name, unit, _ in DECLARED}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
