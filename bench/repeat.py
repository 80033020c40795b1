#!/usr/bin/env python3
"""Run the benchmark once per seed and summarize the spread of each metric.

    python3 bench/repeat.py --workload exact-checks --seeds 1-10 [--trace 0]
        [--out summary.json]

For every metric it prints the median of the runs, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median.  End-to-end metrics are
shown beside their bound from BENCHMARK.json.  Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition('-')
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', action='append', required=True)
    ap.add_argument('--seeds', default='1-10', help='inclusive range a-b')
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    ap.add_argument('--seconds', type=int, default=None,
                    help='default: run_seconds from BENCHMARK.json')
    ap.add_argument('--out', default=None, help='write the summary as JSON')
    args = ap.parse_args()
    spec = json.loads((ROOT / 'BENCHMARK.json').read_text())
    bounds = {m['name']: m['bound'] for m in spec['end_to_end']}
    seconds = args.seconds or spec['run_seconds']
    summary = {}
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [*spec['command'], '--workload', workload, '--seed',
                   str(seed), '--seconds', str(seconds),
                   '--trace', str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        rows = {}
        for name in runs[0]['metrics']:
            values = [r['metrics'][name]['value'] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            rows[name] = {'median': med, 'q1': q1, 'q3': q3,
                          'spread': (q3 - q1) / med if med else None,
                          'unit': runs[0]['metrics'][name]['unit'],
                          'values': values}
        summary[workload] = {
            'seeds': args.seeds, 'seconds': seconds,
            'correct': all(r['correct'] for r in runs),
            'attempted': sum(r['attempted'] for r in runs),
            'failed': sum(r['failed'] for r in runs),
            'metrics': rows}
        print(f'== {workload}: correct {summary[workload]["correct"]}, '
              f'failed {summary[workload]["failed"]} of '
              f'{summary[workload]["attempted"]}')
        for name, row in rows.items():
            bound = bounds.get(name) if not args.trace else None
            spread = ('n/a' if row['spread'] is None
                      else f'{row["spread"]:.4f}')
            note = f'  bound {bound}' if bound is not None else ''
            print(f'{name:32} median {row["median"]:.6g} {row["unit"]}  '
                  f'q1 {row["q1"]:.6g}  q3 {row["q3"]:.6g}  '
                  f'spread {spread}{note}')
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + '\n')
    return 0


if __name__ == '__main__':
    sys.exit(main())
