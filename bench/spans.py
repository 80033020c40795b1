"""Layer tracing for the benchmark, applied from outside the package.

Tracer.install() wraps public functions of each koszulity module in place:
every module namespace that holds the function gets the wrapper, so the
CLI's own calls go through it.  Each call becomes a span with a name, the
stage it counts toward, start, end, parent span and op id.  Spans stay in
memory until write_jsonl(); layer_metrics() turns them into per-stage self
times (a span's duration minus its child spans) and work counters.

A target or counter that the package no longer has raises, so a renamed or
moved function stops the trace run instead of reading 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _graded_dim(X) -> int:
    return sum(X.component(n).dim for n in range(X.top_degree + 1))


def _slice_size(cx):
    'Total dimension, differential block count and nnz of a complex slice.'
    mats = [mat for d in cx.differentials.values() for mat in d.blocks.values()]
    return cx.total_dim(), len(mats), sum(mat.nnz() for mat in mats)


def _count_shriek(tracer, rec, args, pair):
    partner = pair.coring if rec['name'].endswith('_ring') else pair.ring
    tracer.counts['graded.shriek_dim_total'] += _graded_dim(partner)


def _count_sweep_slice(tracer, rec, args, cx):
    dims, _, nnz = _slice_size(cx)
    tracer.counts['koszul.sweep_dim_total'] += dims
    tracer.counts['koszul.sweep_nnz_total'] += nnz


def _count_bar_slice(tracer, rec, args, cx):
    tracer.counts['homology.slices_nonempty'] += cx.total_dim() > 0


def _count_ranked_slice(tracer, rec, args, dims):
    if rec['stage'] != 'homology.slice_rank':
        return   # ranked inside the exactness sweep, counted there
    total, blocks, nnz = _slice_size(args[0])
    tracer.counts['homology.slice_dim_total'] += total
    tracer.counts['homology.rank_calls'] += blocks
    tracer.counts['homology.nnz_total'] += nnz


def _count_reps(tracer, rec, args, result):
    tracer.counts['homology.useful_reps'] += args[0].dim > 0


def _classify_cache(tracer, rec, args, report):
    # without --cache every call computes its report: a miss
    cached = report['timings']['cached']
    rec['stage'] = 'cli.cache_hit' if cached else 'cli.cache_miss'


# (module, attribute, stage, counter hook); attribute may be Class.method
TARGETS = (
    ('koszulity.poset', 'parse_poset', 'poset.parse', None),
    ('koszulity.poset', 'incidence_ring', 'poset.incidence', None),
    ('koszulity.poset', 'incidence_coring', 'poset.incidence', None),
    ('koszulity.poset', 'canonical_form', 'poset.canonical', None),
    ('koszulity.poset', 'enumerate_corpus', 'poset.enumerate', None),
    ('koszulity.graded_structures', 'is_strongly_graded_ring',
     'graded.strongly_graded', None),
    ('koszulity.graded_structures', 'is_strongly_graded_coring',
     'graded.strongly_graded', None),
    ('koszulity.koszul', 'make_pair_shriek_ring', 'koszul.pair',
     _count_shriek),
    ('koszulity.koszul', 'make_pair_shriek_coring', 'koszul.pair',
     _count_shriek),
    ('koszulity.koszul', 'decide_koszul_ring', 'koszul.decide', None),
    ('koszulity.koszul', 'decide_koszul_coring', 'koszul.decide', None),
    ('koszulity.koszul', 'koszul_complex_left', 'koszul.sweep_build',
     _count_sweep_slice),
    ('koszulity.koszul', 'koszul_complex_right', 'koszul.sweep_build',
     _count_sweep_slice),
    ('koszulity.koszul', 'is_exact', 'koszul.sweep_rank', None),
    ('koszulity.homology', 'bar_complex_ring', 'homology.slice_build',
     _count_bar_slice),
    ('koszulity.homology', 'cobar_complex_coring', 'homology.slice_build',
     _count_bar_slice),
    ('koszulity.homology', 'ComplexSlice.homology_dims',
     'homology.slice_rank', _count_ranked_slice),
    ('koszulity.homology', 'SliceHomology.__init__', 'homology.reps',
     _count_reps),
    ('koszulity.homology', 'tor_primitive_dims', 'homology.primitives', None),
    ('koszulity.homology', 'ext_diagonal_products_surjective',
     'homology.primitives', None),
    ('koszulity.homology', 'is_quadratic_direct', 'homology.quad_direct',
     None),
    ('koszulity.homology', 'is_quadratic_coring_direct',
     'homology.quad_direct', None),
    ('koszulity.poset', 'incidence_duality_check', 'duality', None),
    ('koszulity.duality', 'dual_pair', 'duality', None),
    ('koszulity.duality', 'double_dual_check', 'duality', None),
    ('koszulity.cli', '_with_cache', 'cli.cache', _classify_cache),
    ('koszulity.cli', 'cmd_check', 'cli.command', None),
    ('koszulity.cli', 'cmd_corpus', 'cli.command', None),
)

# a span of the first stage opened directly under a span of the second
# counts toward the second: homology_dims inside is_exact is sweep work
INHERIT = {('homology.slice_rank', 'koszul.sweep_rank')}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)
        self.op = None
        self._stack = []
        self._undo = []
        self._t0 = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(name) for name in
                   sorted({t[0] for t in TARGETS} | {'koszulity'})]
        for mod_name, attr, stage, hook in TARGETS:
            module = importlib.import_module(mod_name)
            owner, _, name = attr.rpartition('.')
            owner = getattr(module, owner) if owner else module
            fn = getattr(owner, name)
            label = f'{mod_name.rpartition(".")[2]}.{attr}'
            wrapped = self._wrap(label, stage, hook, fn)
            if owner is module:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapped)
            else:
                self._patch(owner, name, wrapped)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch(self, owner, name, wrapped):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapped)

    # -- spans -------------------------------------------------------------

    def _open(self, name, stage):
        parent = self._stack[-1] if self._stack else None
        if parent is not None and (stage, parent['stage']) in INHERIT:
            stage = parent['stage']
        rec = {'id': len(self.spans), 'name': name, 'stage': stage,
               'op': self.op, 'parent': None if parent is None else parent['id'],
               'start': time.perf_counter() - self._t0, 'end': None}
        self.spans.append(rec)
        self._stack.append(rec)
        self.calls[stage] += 1
        return rec

    def _close(self, rec):
        rec['end'] = time.perf_counter() - self._t0
        self._stack.pop()

    def _wrap(self, name, stage, hook, fn):
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's work stays outside
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    rec = self._open(name, stage)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec)
                    self.counts[stage + '.items'] += 1
                    yield item
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name, stage)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                hook(self, rec, args, result)
            return result
        return wrapper

    @contextmanager
    def op_span(self, op_id: str):
        'The root span of one CLI call.'
        self.op = op_id
        rec = self._open('cli.main', 'cli.main')
        try:
            yield
        finally:
            self._close(rec)
            self.op = None

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        'Stage -> summed self time of its spans.'
        covered = defaultdict(float)
        for s in self.spans:
            if s['parent'] is not None:
                covered[s['parent']] += s['end'] - s['start']
        out = defaultdict(float)
        for s in self.spans:
            out[s['stage']] += s['end'] - s['start'] - covered[s['id']]
        return out

    def total(self, stage: str) -> float:
        'Summed duration of the spans of one stage, children included.'
        return sum(s['end'] - s['start'] for s in self.spans
                   if s['stage'] == stage)

    def layer_metrics(self) -> dict:
        """The per-layer metrics of everything traced so far.

        Times are self times, except koszul.decide_s, which is the whole
        decide_koszul_* span; trace.coverage is the share of that span
        that the stages inside it account for.
        """
        own = self.self_times()
        decide = self.total('koszul.decide')
        built = self.calls['homology.slice_build']
        cells = self.calls['homology.reps']

        def share(part, whole):
            return part / whole if whole else 0.0

        times = {
            'poset.parse_s': own['poset.parse'],
            'poset.incidence_s': own['poset.incidence'],
            'poset.canonical_s': own['poset.canonical'],
            'poset.enumerate_s': own['poset.enumerate'],
            'graded.strongly_graded_s': own['graded.strongly_graded'],
            'koszul.pair_s': own['koszul.pair'],
            'koszul.decide_s': decide,
            'koszul.sweep_build_s': own['koszul.sweep_build'],
            'koszul.sweep_rank_s': own['koszul.sweep_rank'],
            'homology.slice_build_s': own['homology.slice_build'],
            'homology.slice_rank_s': own['homology.slice_rank'],
            'homology.reps_s': own['homology.reps'],
            'homology.primitives_s': own['homology.primitives'],
            'homology.quad_direct_s': own['homology.quad_direct'],
            'duality.s': own['duality'],
            'cli.cache_hit_s': own['cli.cache_hit'],
            'cli.cache_miss_s': own['cli.cache_miss'],
        }
        counts = {
            'poset.canonical_calls': self.calls['poset.canonical'],
            'poset.enumerated': self.counts['poset.enumerate.items'],
            'graded.strongly_graded_calls':
                self.calls['graded.strongly_graded'],
            'graded.shriek_dim_total': self.counts['graded.shriek_dim_total'],
            'koszul.sweep_dim_total': self.counts['koszul.sweep_dim_total'],
            'koszul.sweep_nnz_total': self.counts['koszul.sweep_nnz_total'],
            'homology.slices_built': built,
            'homology.slices_nonempty': self.counts['homology.slices_nonempty'],
            'homology.rank_calls': self.counts['homology.rank_calls'],
            'homology.nnz_total': self.counts['homology.nnz_total'],
            'homology.slice_dim_total': self.counts['homology.slice_dim_total'],
            'homology.reps_cells': cells,
        }
        shares = {
            'homology.nonempty_slice_share':
                share(self.counts['homology.slices_nonempty'], built),
            'homology.useful_reps_share':
                share(self.counts['homology.useful_reps'], cells),
            'trace.coverage': share(decide - own['koszul.decide'], decide),
        }
        return {**times, **counts, **shares}

    def write_jsonl(self, path):
        with open(path, 'w') as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + '\n')
