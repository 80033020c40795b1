"""Command-line frontend.

Loads poset files, runs the Koszulity decision, Betti tables, shriek
presentations, duality verification, and corpus sweeps, and emits reports.
JSON is the primary output; the text and CSV renderings are derived from
the JSON document rather than computed separately.  Timings sit in their
own section so that cached and fresh reports agree byte for byte
everywhere else.

Report schema, version 1.  Every report is an object with:

    schema_version   1
    command          check | betti | shriek | dual | corpus
    input            {"digest", "elements", "covers"} (corpus: bounds)
    config           {"field", "max_weight", ...}
    timings          {"total_s", "cached"}   -- segregated, never cached
    ...              command-specific payload, see the cmd_* docstrings

Exit codes: 0 = computed (whether or not the poset is Koszul), 2 = bad
input, 3 = internal criteria disagreement or failed internal invariant
(canaries that must never fire).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .exact_linalg import FieldSpec, RATIONALS
from .errors import InputError, CriteriaDisagreement, InvariantError
from .poset import (GradedPoset, parse_poset, incidence_ring,
                    incidence_coring, incidence_duality_check, zeta_ring,
                    enumerate_corpus)
from .graded_structures import shriek_of_ring
from .homology import tor_table, ext_table
from .koszul import decide_koszul_ring, decide_koszul_coring
from .duality import graded_left_dual_of_ring, dual_pair, double_dual_check

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    field: FieldSpec
    field_text: str
    m_max_override: int | None
    output_format: str
    cache_dir: str | None
    parallelism: int

    def __post_init__(self):
        if self.parallelism < 1:
            raise InputError('--jobs must be at least 1')

    def echo(self) -> dict:
        return {'field': self.field_text,
                'max_weight': ('auto' if self.m_max_override is None
                               else self.m_max_override)}


def parse_field(text: str) -> FieldSpec:
    'rational, or fp:P for a prime P.'
    if text == 'rational':
        return RATIONALS
    if text.startswith('fp:'):
        try:
            return FieldSpec.prime_field(int(text[3:]))
        except ValueError as exc:
            raise InputError(f'bad field {text!r}: {exc}') from None
    raise InputError(f'unknown field {text!r}; use rational or fp:P')


def parse_max_weight(text: str):
    if text == 'auto':
        return None
    try:
        n = int(text)
    except ValueError:
        raise InputError(f'--max-weight must be a number or auto, '
                         f'got {text!r}') from None
    if n < 0:
        raise InputError('--max-weight must be nonnegative')
    return n


def load_poset(path: str) -> GradedPoset:
    try:
        with open(path) as fh:
            document = json.load(fh)
    except OSError as exc:
        raise InputError(f'cannot read {path}: {exc}') from None
    except json.JSONDecodeError as exc:
        raise InputError(f'{path} is not valid JSON: {exc}') from None
    return parse_poset(document)


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _poset_echo(P: GradedPoset) -> dict:
    n, edges = P.canonical_key()
    return {'digest': _digest([n, [list(e) for e in edges]]),
            'elements': list(P.elements),
            'covers': [list(c) for c in P.covers]}


# ---------------------------------------------------------------------------
# worker tasks (module-level so the process pool can pickle them)
# ---------------------------------------------------------------------------

def _decide_task(payload: dict) -> tuple:
    """The verdict document of one side and that side's share of the
    duality block: the ring worker dualizes its pair and checks the double
    dual of its ring, the coring worker checks the incidence duality on the
    coring it decided."""
    P = parse_poset(payload['document'])
    field = parse_field(payload['field'])
    m_max = payload['m_max']
    if payload['side'] == 'ring':
        A = incidence_ring(P, field)
        verdict = decide_koszul_ring(A, m_max)
        dual_pair(verdict.pair)   # raises if not almost-Koszul
        return verdict.to_json(), {'dual_pair_almost_koszul': True,
                                   'double_dual': double_dual_check(A)}
    C = incidence_coring(P, field)
    verdict = decide_koszul_coring(C, m_max)
    A = incidence_ring(P, field)
    return verdict.to_json(), {
        'dual_is_incidence_coring': incidence_duality_check(A, C)}


def _corpus_task(payload: dict) -> dict:
    P = parse_poset(payload['document'])
    field = parse_field(payload['field'])
    ring_v = decide_koszul_ring(incidence_ring(P, field), payload['m_max'])
    coring_v = decide_koszul_coring(incidence_coring(P, field),
                                    payload['m_max'])
    if ring_v.verdict != coring_v.verdict:
        raise CriteriaDisagreement(
            f'ring and coring verdicts disagree on covers '
            f'{payload["document"]["covers"]}: '
            f'{ring_v.verdict} vs {coring_v.verdict}')
    return {'elements': len(P.elements),
            'covers': [list(c) for c in P.covers],
            'digest': _poset_echo(P)['digest'],
            'verdict': ring_v.verdict,
            'sound': ring_v.sound,
            'm_bound_used': ring_v.m_bound_used}


def _run_tasks(fn, payloads: list, jobs: int) -> list:
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(fn, payloads))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check(P: GradedPoset, poset_file: str, config: RunConfig) -> dict:
    """Full decision on the poset P read from poset_file: ring verdict,
    coring verdict, duality checks.

    Payload keys: "verdict" (the agreed answer), "ring" and "coring"
    (per-criterion verdict documents), "witness_weights" (weights of the
    non-exact Koszul slices when the answer is false), "duality".
    """
    document = P.to_document()
    payloads = [{'document': document, 'field': config.field_text,
                 'm_max': config.m_max_override, 'side': side}
                for side in ('ring', 'coring')]
    (ring_json, ring_duality), (coring_json, coring_duality) = _run_tasks(
        _decide_task, payloads, config.parallelism)
    if ring_json['verdict'] != coring_json['verdict']:
        raise CriteriaDisagreement(
            f'ring verdict {ring_json["verdict"]} but coring verdict '
            f'{coring_json["verdict"]} for {poset_file}')
    witness = sorted(
        int(m)
        for crit in ring_json['criteria'] if crit['id'] == 'pair_exactness'
        for m in crit['evidence'].get('failing_weights', {}))
    return {'schema_version': SCHEMA_VERSION,
            'command': 'check',
            'input': _poset_echo(P),
            'config': config.echo(),
            'verdict': ring_json['verdict'],
            'witness_weights': witness,
            'ring': ring_json,
            'coring': coring_json,
            'duality': {**ring_duality, **coring_duality}}


def cmd_betti(P: GradedPoset, side: str, config: RunConfig) -> dict:
    """Betti table of the chosen side.

    Payload keys: "kind", "n_max", "m_max", "entries" as [n, m, dim]
    triples, "diagonal", "grid" (rows n = 0..n_max over m = 0..m_max).
    """
    if side == 'ring':
        table = tor_table(incidence_ring(P, config.field),
                          m_max=config.m_max_override)
    else:
        table = ext_table(incidence_coring(P, config.field),
                          m_max=config.m_max_override)
    return {'schema_version': SCHEMA_VERSION,
            'command': 'betti',
            'input': _poset_echo(P),
            'config': {**config.echo(), 'side': side},
            'kind': table.kind,
            'n_max': table.n_max,
            'm_max': table.m_max,
            'entries': [[n, m, v] for (n, m), v in table.entries.items()],
            'diagonal': [table.entry(n, n) for n in range(table.n_max + 1)],
            'grid': table.as_grid()}


def _render_zeta(P: GradedPoset, x, y) -> str:
    terms = [f'e_{{{x},{z}}} (x) e_{{{z},{y}}}' for z in P.middles(x, y, 1)]
    return ' + '.join(terms) if terms else '0'


def cmd_shriek(P: GradedPoset, config: RunConfig) -> dict:
    """Shriek presentation of the incidence structures.

    Payload keys: "generators" (zeta_{x,y} for every length-2 interval,
    written out in the e_{x,z} (x) e_{z,y} basis), "coring_shriek_dims"
    (the zeta ring, graded dims), "ring_shriek_dims" (the shriek coring
    of the incidence ring, graded dims).
    """
    Z = zeta_ring(P, config.field)
    shr = shriek_of_ring(incidence_ring(P, config.field))
    return {'schema_version': SCHEMA_VERSION,
            'command': 'shriek',
            'input': _poset_echo(P),
            'config': config.echo(),
            'generators': {f'zeta_{{{x},{y}}}': _render_zeta(P, x, y)
                           for x, y in P.intervals(2)},
            'coring_shriek_dims': [Z.component(n).dim
                                   for n in range(Z.top_degree + 1)],
            'ring_shriek_dims': [shr.component(n).dim
                                 for n in range(shr.top_degree + 1)]}


def cmd_dual(P: GradedPoset, config: RunConfig) -> dict:
    """Duality verification report.

    Payload keys: "dual_is_incidence_coring" (the literal e -> f
    relabeling), "double_dual_ring", "double_dual_coring",
    "dual_pair_almost_koszul", "verdicts_agree" (ring vs graded-dual
    coring decision).
    """
    A = incidence_ring(P, config.field)
    C = incidence_coring(P, config.field)
    rv = decide_koszul_ring(A, config.m_max_override)
    dual_pair(rv.pair)
    cv = decide_koszul_coring(graded_left_dual_of_ring(A),
                              config.m_max_override)
    return {'schema_version': SCHEMA_VERSION,
            'command': 'dual',
            'input': _poset_echo(P),
            'config': config.echo(),
            'dual_is_incidence_coring': incidence_duality_check(A, C),
            'double_dual_ring': double_dual_check(A),
            'double_dual_coring': double_dual_check(C),
            'dual_pair_almost_koszul': True,
            'verdicts_agree': rv.verdict == cv.verdict,
            'verdict': rv.verdict}


def cmd_corpus(max_elements: int, config: RunConfig) -> dict:
    """Sweep every graded poset with up to max_elements elements.

    Payload keys: "rows" (one per isomorphism class: size, covers,
    verdict, soundness), "summary" with counts and the agreement rate,
    which is asserted to be 100%.
    """
    if max_elements < 1:
        raise InputError('--max-elements must be at least 1')
    payloads = []
    for size in range(1, max_elements + 1):
        for P in enumerate_corpus(size):
            payloads.append({'document': P.to_document(),
                             'field': config.field_text,
                             'm_max': config.m_max_override})
    rows = _run_tasks(_corpus_task, payloads, config.parallelism)
    koszul = sum(1 for r in rows if r['verdict'])
    return {'schema_version': SCHEMA_VERSION,
            'command': 'corpus',
            'input': {'max_elements': max_elements},
            'config': config.echo(),
            'rows': rows,
            'summary': {'posets': len(rows),
                        'koszul': koszul,
                        'not_koszul': len(rows) - koszul,
                        'disagreements': 0,
                        'agreement': '100%'}}


# ---------------------------------------------------------------------------
# rendering and caching
# ---------------------------------------------------------------------------

def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def render_text(report: dict) -> str:
    'Human rendering, derived from the JSON document by a generic walk.'
    lines = []

    def walk(value, prefix):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(value[key], f'{prefix}{key}.' if prefix else f'{key}.')
        elif isinstance(value, list) and value and isinstance(
                value[0], (list, dict)):
            for i, item in enumerate(value):
                walk(item, f'{prefix}{i}.')
        elif isinstance(value, list):
            lines.append(f'{prefix[:-1]}: {", ".join(map(str, value))}')
        else:
            lines.append(f'{prefix[:-1]}: {value}')

    walk(report, '')
    return '\n'.join(lines)


def render_csv(report: dict) -> str:
    """CSV rendering.

    Betti reports become the (n, m) grid; anything else flattens to
    key,value rows in the same dotted-path order as the text rendering.
    """
    if 'grid' in report:
        header = 'n\\m,' + ','.join(
            str(m) for m in range(report['m_max'] + 1))
        body = [f'{n},' + ','.join(str(v) for v in row)
                for n, row in enumerate(report['grid'])]
        return '\n'.join([header] + body)
    flat = render_text(report)
    return '\n'.join(line.replace(': ', ',', 1)
                     for line in flat.splitlines())


RENDERERS = {'json': render_json, 'text': render_text, 'csv': render_csv}


def _cache_path(cache_dir: str, key: dict) -> str:
    return os.path.join(cache_dir, f'koszulity-{_digest(key)}.json')


def _with_cache(config: RunConfig, key: dict, compute) -> dict:
    """Run compute() through the cache; the timings section is attached
    afterwards so cached and fresh reports differ only there.

    An entry that cannot be read as a JSON report is a miss and is
    rewritten.  Entries are written to a temporary file and renamed into
    place, so a reader never sees a partly written one.
    """
    path = None
    if config.cache_dir is not None:
        os.makedirs(config.cache_dir, exist_ok=True)
        path = _cache_path(config.cache_dir, key)
        try:
            with open(path) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = None
        if isinstance(report, dict):
            report['timings'] = {'total_s': 0.0, 'cached': True}
            return report
    start = time.perf_counter()
    report = compute()
    elapsed = time.perf_counter() - start
    if path is not None:
        tmp = f'{path}.{os.getpid()}.tmp'
        with open(tmp, 'w') as fh:
            fh.write(render_json(report))
        os.replace(tmp, path)
    report['timings'] = {'total_s': round(elapsed, 6), 'cached': False}
    return report


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog='koszulity',
        description='Decide Koszulity of incidence rings of graded posets '
                    'in exact arithmetic.')
    sub = ap.add_subparsers(dest='command', required=True)

    def common(p, needs_poset=True):
        if needs_poset:
            p.add_argument('--poset', required=True, metavar='FILE',
                           help='JSON file {"elements": [...], '
                                '"covers": [[lo, hi], ...]}')
        p.add_argument('--field', default='rational', metavar='SPEC',
                       help='rational (default) or fp:P')
        p.add_argument('--max-weight', default='auto', metavar='N',
                       help='override the weight sweep bound (default auto)')
        p.add_argument('--format', default='json', dest='output_format',
                       choices=['json', 'csv', 'text'])
        p.add_argument('--cache', default=None, metavar='DIR',
                       help='directory for cached reports')
        p.add_argument('--jobs', type=int, default=os.cpu_count() or 1,
                       metavar='N', help='worker processes (default: cores)')

    common(sub.add_parser('check', help='decide Koszulity, both sides'))
    betti = sub.add_parser('betti', help='bigraded Betti table')
    common(betti)
    betti.add_argument('--side', choices=['ring', 'coring'], default='ring')
    common(sub.add_parser('shriek', help='quadratic-dual presentation'))
    common(sub.add_parser('dual', help='graded-duality verification'))
    corpus = sub.add_parser('corpus', help='sweep all small graded posets')
    common(corpus, needs_poset=False)
    corpus.add_argument('--max-elements', type=int, default=4, metavar='N')
    return ap


def _dispatch(args, config: RunConfig) -> dict:
    key = {'schema': SCHEMA_VERSION, 'command': args.command,
           'field': config.field_text,
           'max_weight': config.echo()['max_weight']}
    if args.command == 'corpus':
        key['max_elements'] = args.max_elements
        return _with_cache(config, key,
                           lambda: cmd_corpus(args.max_elements, config))
    P = load_poset(args.poset)
    # the literal document, labels and order as given: a report echoes
    # the labels of its input, so isomorphic copies must not share entries
    key['input'] = P.to_document()
    if args.command == 'betti':
        key['side'] = args.side
        return _with_cache(config, key,
                           lambda: cmd_betti(P, args.side, config))
    if args.command == 'check':
        return _with_cache(config, key,
                           lambda: cmd_check(P, args.poset, config))
    command = {'shriek': cmd_shriek, 'dual': cmd_dual}[args.command]
    return _with_cache(config, key, lambda: command(P, config))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(field=parse_field(args.field),
                           field_text=args.field,
                           m_max_override=parse_max_weight(args.max_weight),
                           output_format=args.output_format,
                           cache_dir=args.cache,
                           parallelism=args.jobs)
        report = _dispatch(args, config)
        sys.stdout.write(RENDERERS[config.output_format](report) + '\n')
        return 0
    except InputError as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 2
    except CriteriaDisagreement as exc:
        print(f'criteria disagreement (this should never happen): {exc}',
              file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f'internal invariant failed (this should never happen): {exc}',
              file=sys.stderr)
        return 3


if __name__ == '__main__':
    sys.exit(main())
