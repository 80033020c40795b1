#!/usr/bin/env python3
"""Benchmark of the koszulity CLI: time to a checked verdict per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the package is taken from ./src.  Each
workload is a closed loop of CLI calls, each in its own interpreter with
--jobs 2, each waiting for the previous one.  One pass runs every op of
the workload once; passes repeat until they have taken about --seconds,
give or take half a pass.  Set-ups are spread over the run, between CLI
calls.

On a shared host the speed of the cores drifts by a third or more, in
phases of seconds to minutes, with the load of other tenants; from one run
to the next that drift is larger than the changes the benchmark has to
show.  So the run also times a fixed pure-Python reference kernel, on
--jobs processes at once, at points spread over the run between CLI calls,
and gives the end-to-end times in units of the median kernel time ("ref").
The raw wall times are printed as well.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
repeats rounds of four passes: an untraced CLI pass, an untraced in-process
pass with the same --jobs, and an untraced and a traced in-process pass with
--jobs 1 (in alternating order), all through koszulity.cli.main.  It makes
rounds while --seconds allows, at least two unless the second would end
after TRACE_CAP_S, and reports the medians over rounds of the per-layer
metrics; the spans go to .bench_build/ as JSON lines, one file per round.

Every report is checked against known answers (see workload_ops).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
An op fails when the CLI exits non-zero, times out, prints no report, or
its report is wrong in any checked field.  Every failure makes `correct`
false except a wrong label echo in an otherwise right report.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / 'src'
WORK = ROOT / '.bench_build'

import inputs
import spans

JOBS = 2                 # at most the core count of the reference machine
SETUPS = 21              # set-ups per run; setup_s is their median
SETUPS_FIRST = 5         # of them before the first pass, the rest between
REF_POINTS = 31          # reference kernel points per run; 1 before the first pass
CALL_TIMEOUT_S = 150     # one CLI call; a hung call fails its op
TRACE_ROUNDS = 2         # a trace run makes at least this many rounds ...
TRACE_CAP_S = 140        # ... unless the next would end after this

# Integer arithmetic in an interpreter loop: about 0.1 s alone on the
# reference machine.  It uses nothing of the package, so no change to the
# package can move it.
REF_KERNEL = ('import time\n'
              't = time.perf_counter()\n'
              's = 0\n'
              'for i in range(1_000_000):\n'
              '    s += i * i % 7\n'
              'print(time.perf_counter() - t)')

KOSZUL = {'verdict': True, 'witness_weights': []}
CORPUS_6 = {'posets': 385, 'koszul': 384, 'not_koszul': 1,
            'disagreements': 0, 'agreement': '100%'}


@dataclass
class Op:
    name: str
    file: str | None          # poset file stem, shared by ops on one poset
    doc: dict | None
    expect: dict
    field: str = 'rational'
    cached: bool = False      # runs with --cache in the pass's cache dir

    def argv(self, files: dict, jobs: int, cache_dir: Path) -> list:
        if self.file is None:
            args = ['corpus', '--max-elements', '6']
        else:
            args = ['check', '--poset', str(files[self.file]),
                    '--field', self.field]
        if self.cached:
            args += ['--cache', str(cache_dir)]
        return args + ['--jobs', str(jobs)]

    @property
    def posets(self) -> int:
        return self.expect['summary']['posets'] if self.file is None else 1


def workload_ops(name: str, seed: int) -> list:
    p = inputs.label_prefix(seed)
    if name == 'exact-checks':
        rp2 = inputs.rp2(p)
        return [Op('grid4x5', 'grid4x5', inputs.grid(4, 5, p), KOSZUL),
                Op('b5', 'b5', inputs.boolean_lattice(5, p), KOSZUL),
                Op('rp2-q', 'rp2', rp2, KOSZUL),
                Op('rp2-f2', 'rp2', rp2,
                   {'verdict': False, 'witness_weights': [4]}, 'fp:2')]
    if name == 'corpus-cache':
        dia = inputs.diamonds(5, p)
        anti = inputs.antichain(7, p)
        return [Op('corpus6', None, None, {'summary': CORPUS_6}),
                Op('diamonds-cold', 'diamonds', dia, KOSZUL, cached=True),
                Op('diamonds-warm', 'diamonds', dia, KOSZUL, cached=True),
                Op('diamonds-relabelled', 'relabelled',
                   inputs.relabel(dia, seed), KOSZUL, cached=True),
                Op('antichain-cold', 'antichain', anti, KOSZUL, cached=True),
                Op('antichain-warm', 'antichain', anti, KOSZUL, cached=True)]
    raise KeyError(name)


# Two workloads, not one per input shape: on a shared 2-vCPU host a run
# needs about 40 s of measured work for its spread over seeds to stay
# within the bounds, and two workloads keep two sets of ten runs each, plus
# the trace runs, under an hour.
WORKLOADS = ('exact-checks', 'corpus-cache')


# ---------------------------------------------------------------------------
# checking reports
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    op: Op
    problems: list = field(default_factory=list)
    wrong_answer: bool = False
    digest: str | None = None
    decided: bool = False


def check_output(op: Op, returncode: int, stdout: str, stderr: str) -> Outcome:
    out = Outcome(op)
    if returncode != 0:
        # a crash, a timeout (killed) or a criteria disagreement (exit 3):
        # the op gives no right answer
        out.problems.append(f'exit code {returncode}: {stderr.strip()[-200:]}')
        out.wrong_answer = True
        return out
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        report = None
    if not isinstance(report, dict):
        out.problems.append('output is not a JSON report')
        out.wrong_answer = True
        return out
    out.decided = True
    report.pop('timings', None)
    out.digest = hashlib.sha256(
        json.dumps(report, sort_keys=True, indent=2).encode()).hexdigest()
    if op.file is None:
        if report.get('summary') != op.expect['summary']:
            out.problems.append(f'summary {report.get("summary")}')
            out.wrong_answer = True
        if report.get('input') != {'max_elements': 6}:
            out.problems.append(f'input echo {report.get("input")}')
        return out
    for key in ('verdict', 'witness_weights'):
        if report.get(key) != op.expect[key]:
            out.problems.append(f'{key} {report.get(key)!r}, '
                                f'expected {op.expect[key]!r}')
            out.wrong_answer = True
    sides = [report.get(s, {}).get('verdict') for s in ('ring', 'coring')]
    if sides != [report.get('verdict')] * 2:
        out.problems.append(f'ring/coring verdicts {sides}')
        out.wrong_answer = True
    echo = report.get('input', {})
    if (echo.get('elements') != op.doc['elements']
            or echo.get('covers') != op.doc['covers']):
        out.problems.append('input echo carries labels of another file')
    return out


# ---------------------------------------------------------------------------
# set-up and passes
# ---------------------------------------------------------------------------

def child_env(seed: int, tmp: Path) -> dict:
    env = dict(os.environ)
    env['PYTHONPATH'] = str(SRC)
    env['PYTHONHASHSEED'] = str(seed % 2 ** 32)
    env['TMPDIR'] = str(tmp)
    return env


IMPORT_PROBE = ('import time; t = time.perf_counter(); import koszulity.cli; '
                'print(time.perf_counter() - t)')


def setup_once(workload: str, seed: int, run_dir: Path, env: dict):
    """Generate and write the inputs, and import koszulity.cli in a fresh
    interpreter.  Returns (ops, files, seconds, in-interpreter import
    seconds)."""
    start = time.perf_counter()
    ops = workload_ops(workload, seed)
    files = {}
    for op in ops:
        if op.file is not None and op.file not in files:
            files[op.file] = run_dir / f'{op.file}.json'
            files[op.file].write_text(json.dumps(op.doc))
    probe = subprocess.run([sys.executable, '-c', IMPORT_PROBE], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=CALL_TIMEOUT_S, cwd=ROOT)
    return ops, files, time.perf_counter() - start, float(probe.stdout)


def reference_s(env: dict) -> float:
    'Mean time of the reference kernel, run on JOBS processes at once.'
    procs = [subprocess.Popen([sys.executable, '-S', '-c', REF_KERNEL],
                              env=env, stdout=subprocess.PIPE, text=True)
             for _ in range(JOBS)]
    try:
        return statistics.mean(float(p.communicate(timeout=CALL_TIMEOUT_S)[0])
                               for p in procs)
    finally:
        for p in procs:
            p.kill()
            p.wait()


class Spread:
    """Up to `count` results of take() spread over a run: `first` at the
    start, the rest between CLI calls in step with the measured time, so
    that their median samples the host's fast and slow phases alike.  A run
    that ends short of its --seconds takes fewer: none are taken after the
    measured work, where they would sample another phase."""

    def __init__(self, take, count: int, first: int, seconds: float):
        self.take, self.count, self.first = take, count, first
        self.seconds = seconds
        self.samples = []
        self.measured = 0.0
        take()   # warm-up: the first one of a run reads slow
        self._take(first)

    def _take(self, count: int):
        for _ in range(count):
            self.samples.append(self.take())

    def add(self, seconds: float):
        'Count measured time, and take the samples now due.'
        self.measured += seconds
        share = min(1.0, self.measured / self.seconds)
        due = self.first + int(share * (self.count - self.first))
        self._take(due - len(self.samples))


def children_usage():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss


@dataclass
class Pass:
    wall: float
    cpu: float
    outcomes: list


def cli_pass(ops: list, files: dict, cache_dir: Path, env: dict,
             after_call=None) -> Pass:
    """One pass of CLI calls.  after_call(seconds) runs after each call,
    outside the pass's wall time."""
    results = []
    wall = cpu = 0.0
    for op in ops:
        cpu0, _ = children_usage()
        start = time.perf_counter()
        cmd = [sys.executable, '-m', 'koszulity.cli',
               *op.argv(files, JOBS, cache_dir)]
        # a new process group, so a hung call can be killed with its pool
        with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT,
                              start_new_session=True) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=CALL_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                stdout, stderr = '', f'timed out after {CALL_TIMEOUT_S} s'
        results.append((op, proc.returncode, stdout, stderr))
        seconds = time.perf_counter() - start
        wall += seconds
        cpu += children_usage()[0] - cpu0
        if after_call is not None:
            after_call(seconds)
    return Pass(wall, cpu, [check_output(*r) for r in results])


def inprocess_pass(ops: list, files: dict, cache_dir: Path, jobs: int,
                   tracer=None):
    'One pass through koszulity.cli.main in this process.'
    from koszulity import cli
    results = []
    start = time.perf_counter()
    for op in ops:
        buf = io.StringIO()
        span = (tracer.op_span(op.name) if tracer is not None
                else contextlib.nullcontext())
        try:
            with span, contextlib.redirect_stdout(buf):
                code = cli.main(op.argv(files, jobs, cache_dir))
            results.append((op, code, buf.getvalue(), ''))
        except Exception as exc:   # a crash fails the op, not the run
            results.append((op, -1, '', f'{type(exc).__name__}: {exc}'))
    wall = time.perf_counter() - start
    return Pass(wall, 0.0, [check_output(*r) for r in results])


def traced_pass(ops: list, files: dict, cache_dir: Path):
    'One single-threaded in-process pass with every layer traced.'
    tracer = spans.Tracer()
    tracer.install()
    try:
        return inprocess_pass(ops, files, cache_dir, 1, tracer), tracer
    finally:
        tracer.uninstall()


@dataclass
class TraceRound:
    cli: Pass          # untraced, CLI processes, --jobs JOBS
    same_jobs: Pass    # untraced, in-process, --jobs JOBS
    single: Pass       # untraced, in-process, --jobs 1
    traced: Pass       # traced, in-process, --jobs 1
    layers: dict       # per-layer metrics of the traced pass

    @property
    def passes(self) -> list:
        return [self.cli, self.same_jobs, self.single, self.traced]


def trace_round(index: int, ops: list, files: dict, cache_dir, env: dict,
                trace_path: Path) -> TraceRound:
    cli_run = cli_pass(ops, files, cache_dir(f'cli{index}'), env)
    same_jobs = inprocess_pass(ops, files, cache_dir(f'jobs{index}'), JOBS)
    # alternate the order of the two single-threaded passes, so that a
    # drift of the host's speed does not favour one of them
    if index % 2:
        traced, tracer = traced_pass(ops, files, cache_dir(f'traced{index}'))
        single = inprocess_pass(ops, files, cache_dir(f'single{index}'), 1)
    else:
        single = inprocess_pass(ops, files, cache_dir(f'single{index}'), 1)
        traced, tracer = traced_pass(ops, files, cache_dir(f'traced{index}'))
    tracer.write_jsonl(trace_path)
    return TraceRound(cli_run, same_jobs, single, traced,
                      tracer.layer_metrics())


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def tail_percentile(samples: list):
    """The highest whole percentile with at least ten samples above it, and
    its value; None when there are too few samples."""
    n = len(samples)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    return pct, statistics.quantiles(samples, n=100)[pct - 1]


def summarize(passes: list) -> dict:
    outcomes = [o for p in passes for o in p.outcomes]
    failures = Counter((o.op.name, problem)
                       for o in outcomes for problem in o.problems)
    failed = sum(1 for o in outcomes if o.problems)
    for (name, problem), count in sorted(failures.items()):
        print(f'FAILED {name} x{count}: {problem}')
    digests = {}
    for o in outcomes:
        if o.digest is not None:
            digests.setdefault(o.op.name, set()).add(o.digest)
    for name, ds in digests.items():
        print(f'report_sha256 {name} {" ".join(sorted(ds))}')
    print(f'ops attempted {len(outcomes)}, failed {failed}, '
        f'fail_rate {failed / len(outcomes):.4f}')
    return {'correct': not any(o.wrong_answer for o in outcomes),
            'attempted': len(outcomes), 'failed': failed,
            'digests': {k: sorted(v) for k, v in digests.items()}}


def run(args) -> dict:
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f'run-{os.getpid()}'
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    env = child_env(args.seed, run_dir)
    try:
        setups = Spread(lambda: setup_once(args.workload, args.seed, run_dir,
                                           env),
                        SETUPS, SETUPS_FIRST, args.seconds)
        spreads = [setups]
        if not args.trace:
            refs = Spread(lambda: reference_s(env), REF_POINTS, 1,
                          args.seconds)
            spreads.append(refs)
        ops, files = setups.samples[-1][:2]

        def between_calls(seconds):
            for spread in spreads:
                spread.add(seconds)

        def cache_dir(tag):
            return run_dir / f'cache-{tag}'

        if not args.trace:
            # start a pass while its expected midpoint lies within the
            # measured time, so passes take --seconds give or take half a pass
            passes = []
            measured = 0.0
            while not passes or (measured + statistics.median(
                    p.wall for p in passes) / 2 <= args.seconds):
                passes.append(cli_pass(ops, files, cache_dir(len(passes)),
                                       env, between_calls))
                measured += passes[-1].wall
            setup_s = statistics.median(s[2] for s in setups.samples)
            ref_s = statistics.median(refs.samples)
            summary = summarize(passes)
            walls = [p.wall for p in passes]
            decided = [sum(o.op.posets for o in p.outcomes if o.decided)
                       for p in passes]
            _, maxrss_kb = children_usage()
            print('pass walls ' + ' '.join(f'{w:.3f}' for w in walls) + ' s')
            print('reference kernel ' +
                  ' '.join(f'{r:.3f}' for r in refs.samples) +
                  f' s; median {ref_s:.4f} s')
            tail = tail_percentile(walls)
            for unit, scale in (('s', 1.0), ('ref', 1 / ref_s)):
                print(f'passes {len(walls)}; wall median '
                    f'{statistics.median(walls) * scale:.4f} {unit}; tail ' +
                    (f'p{tail[0]} {tail[1] * scale:.4f} {unit}' if tail else
                     'n/a (fewer than 11 passes)'))
            posets_per_s = statistics.median(
                d / w for d, w in zip(decided, walls))
            print(f'posets per second {posets_per_s:.4f}')
            values = {
                'wall_ref': statistics.median(walls) / ref_s,
                'posets_per_ref': posets_per_s * ref_s,
                'setup_s': setup_s,
                'peak_rss_mb': maxrss_kb / 1024,
            }
        else:
            sys.path.insert(0, str(SRC))
            rounds = []
            start = time.perf_counter()
            measured = 0.0
            while True:
                t = time.perf_counter()
                trace_path = (WORK / f'trace-{args.workload}-seed{args.seed}'
                                     f'-round{len(rounds)}.jsonl')
                rounds.append(trace_round(len(rounds), ops, files, cache_dir,
                                          env, trace_path))
                measured += time.perf_counter() - t
                between_calls(time.perf_counter() - t)
                typical = measured / len(rounds)
                if measured + typical / 2 <= args.seconds:
                    continue
                if (len(rounds) < TRACE_ROUNDS and time.perf_counter() - start
                        + typical <= TRACE_CAP_S):
                    continue
                break
            import_s = statistics.median(s[3] for s in setups.samples)
            print(f'{len(rounds)} trace rounds; spans written to '
                f'{WORK.relative_to(ROOT)}/trace-{args.workload}-'
                f'seed{args.seed}-round*.jsonl')
            summary = summarize([p for r in rounds for p in r.passes])

            def median(values):
                return statistics.median(list(values))

            values = {name: median(r.layers[name] for r in rounds)
                      for name in rounds[0].layers}
            values.update({
                'cli.import_s': import_s,
                'cli.cpu_s': median(r.cli.cpu for r in rounds),
                'cli.overhead_s': median(r.cli.wall - r.same_jobs.wall
                                         for r in rounds),
                'trace.overhead_s': median(r.traced.wall - r.single.wall
                                           for r in rounds),
                'trace.single_thread_s': median(r.single.wall
                                                for r in rounds),
            })
        spec = json.loads((ROOT / 'BENCHMARK.json').read_text())
        metrics = {m['name']: {'value': values[m['name']], 'unit': m['unit']}
                   for m in spec['per_layer' if args.trace else 'end_to_end']}
        for name, m in metrics.items():
            print(f'{name} {m["value"]} {m["unit"]}')
        hashes = WORK / f'hashes-{args.workload}-seed{args.seed}.json'
        hashes.write_text(json.dumps(summary.pop('digests'), indent=1))
        return {**summary, 'metrics': metrics}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', required=True, choices=WORKLOADS)
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / 'koszulity' / 'cli.py').is_file():
        print(f'error: no koszulity sources under {SRC}', file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == '__main__':
    sys.exit(main())
