"""Command-line frontend.

Loads poset files, runs the Koszulity decision, Betti tables, shriek
presentations, duality verification, and corpus sweeps, and emits reports.
JSON is the primary output; the text and CSV renderings are derived from
the JSON document rather than computed separately.  Timings sit in their
own section so that cached and fresh reports agree byte for byte
everywhere else.

Report schema, version 4.  Every report is an object with:

    schema_version   4
    command          check | betti | shriek | dual | corpus
    input            {"digest", "elements", "covers"} (corpus: bounds);
                     digest: sha256 of the input document as given
    config           {"field"} (betti adds "side")
    timings          {"total_s", "cached"}   -- segregated, never cached
    ...              command-specific payload, see the cmd_* docstrings

A library decision is null (undecided) when a truncated shriek partner
is exact up to its cut; a poset never truncates its partners, so every
verdict here is true or false.

Exit codes: 0 = computed (whether or not the poset is Koszul), 2 = bad
input, 3 = internal criteria disagreement or failed internal invariant
(canaries that must never fire).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from itertools import chain, islice

# the algebra (graded_structures, homology, koszul, duality) and the process
# pool are imported where a report is computed, so a cache hit loads neither
from .exact_linalg import FieldSpec, Frozen, RATIONALS
from .errors import InputError, CriteriaDisagreement, InvariantError
from .poset import (GradedPoset, parse_poset, incidence_ring,
                    incidence_coring, incidence_duality_check, zeta_ring,
                    enumerate_corpus, MAX_CORPUS_ELEMENTS)

SCHEMA_VERSION = 4
CHUNK_SIZE = 8   # payloads a pool worker takes at a time


class RunConfig(Frozen):
    _fields = ('field', 'field_text', 'output_format', 'cache_dir',
               'parallelism')

    def __init__(self, field: FieldSpec, field_text: str, output_format: str,
                 cache_dir: str | None, parallelism: int):
        if parallelism < 1:
            raise InputError('--jobs must be at least 1')
        self.__dict__.update(
            field=field, field_text=field_text, output_format=output_format,
            cache_dir=cache_dir, parallelism=parallelism)

    def echo(self) -> dict:
        return {'field': self.field_text}


def parse_field(text: str) -> FieldSpec:
    """rational, or fp:P for a prime P written in ASCII digits with no
    sign, space or leading zero.  One field has one spelling, since the
    report echoes it and the cache key holds it; any other spelling of P
    is refused with the canonical one."""
    if text == 'rational':
        return RATIONALS
    if text.startswith('fp:'):
        digits = text[3:]
        try:
            p = int(digits)
        except ValueError:
            raise InputError(f'bad field {text!r}; use rational or fp:P, '
                             'P a prime in decimal digits') from None
        if digits != str(p):
            raise InputError(f'bad field {text!r}; write it fp:{p}')
        try:
            return FieldSpec.prime_field(p)
        except ValueError as exc:
            raise InputError(f'bad field {text!r}: {exc}') from None
    raise InputError(f'unknown field {text!r}; use rational or fp:P')


def load_poset(path: str) -> GradedPoset:
    try:
        with open(path, encoding='utf-8') as fh:
            document = json.load(fh)
    except OSError as exc:
        raise InputError(f'cannot read {path}: {exc}') from None
    except UnicodeDecodeError as exc:
        raise InputError(f'{path} is not UTF-8 text: {exc}') from None
    except json.JSONDecodeError as exc:
        raise InputError(f'{path} is not valid JSON: {exc}') from None
    except RecursionError:
        raise InputError(f'{path} nests JSON too deeply to read') from None
    return parse_poset(document)


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _poset_echo(P: GradedPoset) -> dict:
    document = P.to_document()
    return {'digest': _digest(document), **document}


# ---------------------------------------------------------------------------
# worker tasks (module-level so the process pool can pickle them)
# ---------------------------------------------------------------------------

def _decide_task(payload: dict) -> tuple:
    """The verdict document of one side and that side's share of the
    duality block: the ring worker dualizes its pair and checks the double
    dual of its ring, the coring worker checks the incidence duality on the
    coring it decided."""
    from .koszul import decide_koszul_ring, decide_koszul_coring
    from .duality import graded_left_dual_of_coring, dual_pair
    P = parse_poset(payload['document'])
    field = parse_field(payload['field'])
    if payload['side'] == 'ring':
        A = incidence_ring(P, field)
        verdict = decide_koszul_ring(A)
        dual = dual_pair(verdict.pair)   # raises if not almost-Koszul
        # dual.coring is the dual of A: one more dual gives the double dual
        return verdict.to_json(), {
            'dual_pair_almost_koszul': True,
            'double_dual': graded_left_dual_of_coring(dual.coring) == A}
    C = incidence_coring(P, field)
    verdict = decide_koszul_coring(C)
    A = incidence_ring(P, field)
    return verdict.to_json(), {
        'dual_is_incidence_coring': incidence_duality_check(A, C)}


def _corpus_task(payload: dict) -> dict:
    from .koszul import decide_koszul_ring, decide_koszul_coring
    P = parse_poset(payload['document'])
    field = parse_field(payload['field'])
    ring_v = decide_koszul_ring(incidence_ring(P, field))
    coring_v = decide_koszul_coring(incidence_coring(P, field))
    if ring_v.verdict != coring_v.verdict:
        raise CriteriaDisagreement(
            f'ring and coring verdicts disagree on covers '
            f'{payload["document"]["covers"]}: '
            f'{ring_v.verdict} vs {coring_v.verdict}')
    return {'elements': len(P.elements),
            'covers': [list(c) for c in P.covers],
            'digest': _digest(payload['document']),
            'verdict': ring_v.verdict,
            'sound': ring_v.sound,
            'm_bound_used': ring_v.m_bound_used}


def _run_tasks(fn, payloads, jobs: int) -> list:
    """[fn(p) for p in payloads], in order, on up to jobs worker processes.

    With jobs 1, or a single payload, everything runs in this process as
    it arrives.  When the first payloads give each worker at most one
    (check's two sides, or a corpus of at most jobs posets), each runs in
    a forked child of its own; on a platform without fork they run in this
    process.  More payloads stream to a process pool: payloads may be a
    generator, and the pool takes each payload as it comes, so workers
    start on the first ones while later ones are still being made.  A
    worker takes up to CHUNK_SIZE payloads at a time, fewer when the first
    jobs * CHUNK_SIZE payloads would not keep every worker busy.

    The pool class is imported only when a pool starts.  Before either
    kind of worker starts, this process loads the algebra the tasks
    import, so that the forked workers inherit it: each worker would
    otherwise compile it again.  Compiled first, on the smaller heap, it
    also leaves a lower peak RSS.
    """
    if jobs <= 1:
        return [fn(p) for p in payloads]
    payloads = iter(payloads)
    head = list(islice(payloads, jobs * CHUNK_SIZE))
    forks = len(head) <= jobs
    if len(head) <= 1 or (forks and not hasattr(os, 'fork')):
        return [fn(p) for p in head]
    from . import duality, koszul   # noqa: F401
    if forks:
        return _fork_each(fn, head)
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, chain(head, payloads),
                             chunksize=min(CHUNK_SIZE, len(head) // jobs)))


def _send_and_exit(fn, payload, sink):
    """In a forked child: pickle (ok, fn(payload) or its exception) into
    sink and leave by os._exit on every path, so the child never runs the
    parent's cleanup or flushes the buffers it inherited."""
    import pickle
    status = 1
    try:
        try:
            outcome = (True, fn(payload))
        except BaseException as exc:   # raised again in the parent
            outcome = (False, exc)
        pickle.dump(outcome, sink)
        sink.flush()
        status = 0
    finally:
        os._exit(status)


def _fork_each(fn, payloads: list) -> list:
    """[fn(p) for p in payloads], each in a forked child of its own.

    Each child sends its outcome through a pipe of its own.  This process
    reads the outcomes in payload order and raises the first exception a
    child sent back.  No child outlives the call: each is reaped, and one
    still running when the call ends early is killed first.  Fork needs a
    process without threads; the CLI starts none.
    """
    import pickle
    import signal
    running = []   # pids of the children not yet reaped, in payload order
    with contextlib.ExitStack() as pipes:
        try:
            sources = []   # the read end of each child's pipe
            for payload in payloads:
                read_fd, write_fd = os.pipe()
                sources.append(pipes.enter_context(open(read_fd, 'rb')))
                with open(write_fd, 'wb') as sink:
                    pid = os.fork()
                    if pid == 0:
                        _send_and_exit(fn, payload, sink)
                running.append(pid)
            results = []
            for source in sources:
                data = source.read()
                _, status = os.waitpid(running[0], 0)
                pid = running.pop(0)
                if status or not data:
                    raise RuntimeError(
                        f'worker process {pid} ended without a result '
                        f'(wait status {status}, exit code '
                        f'{os.waitstatus_to_exitcode(status)})')
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                results.append(value)
            return results
        finally:
            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


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
                 'side': side} for side in ('ring', 'coring')]
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

    Payload keys: "kind", "n_max" and "m_max" (equal: the table's window),
    "entries" as [n, m, dim] triples, "diagonal", "grid" (rows n =
    0..n_max over m = 0..m_max).
    """
    from .homology import tor_table, ext_table
    if side == 'ring':
        table = tor_table(incidence_ring(P, config.field))
    else:
        table = ext_table(incidence_coring(P, config.field))
    return {'schema_version': SCHEMA_VERSION,
            'command': 'betti',
            'input': _poset_echo(P),
            'config': {**config.echo(), 'side': side},
            'kind': table.kind,
            'n_max': table.m_max,
            'm_max': table.m_max,
            'entries': [[n, m, v] for (n, m), v in table.entries.items()],
            'diagonal': [table.entry(n, n) for n in range(table.m_max + 1)],
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
    from .graded_structures import shriek_of_ring
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
    from .koszul import decide_koszul_ring, decide_koszul_coring
    from .duality import (graded_left_dual_of_coring, dual_pair,
                          double_dual_check)
    A = incidence_ring(P, config.field)
    C = incidence_coring(P, config.field)
    rv = decide_koszul_ring(A)
    dual = dual_pair(rv.pair)   # raises if not almost-Koszul
    # dual.coring is the dual of A: decided here, dualized once more for
    # the double dual
    cv = decide_koszul_coring(dual.coring)
    return {'schema_version': SCHEMA_VERSION,
            'command': 'dual',
            'input': _poset_echo(P),
            'config': config.echo(),
            'dual_is_incidence_coring': incidence_duality_check(A, C),
            'double_dual_ring': graded_left_dual_of_coring(dual.coring) == A,
            'double_dual_coring': double_dual_check(C),
            'dual_pair_almost_koszul': True,
            'verdicts_agree': rv.verdict == cv.verdict,
            'verdict': rv.verdict}


def cmd_corpus(max_elements: int, config: RunConfig) -> dict:
    """Sweep every graded poset with up to max_elements elements.

    One walk of enumerate_corpus makes the posets of every size, and each
    size goes to the workers as soon as it is complete, while the next
    size is enumerated.

    Payload keys: "rows" (one per isomorphism class, by size and then by
    canonical key: size, covers, verdict, soundness), "summary" with
    counts and the agreement rate, which is asserted to be 100%.
    """
    if not 1 <= max_elements <= MAX_CORPUS_ELEMENTS:
        raise InputError('--max-elements must be between 1 and '
                         f'{MAX_CORPUS_ELEMENTS}')
    payloads = ({'document': P.to_document(), 'field': config.field_text}
                for P in enumerate_corpus(max_elements))
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

def write_json(report: dict, stream):
    'The JSON document, encoded piece by piece into stream.'
    json.dump(report, stream, sort_keys=True, indent=2)


def _leaves(report: dict):
    """The (dotted path, value) leaves of the JSON document, keys sorted:
    a value is a scalar or a list of scalars, and a list of lists or
    objects is walked by index."""
    def walk(value, prefix):
        if isinstance(value, dict):
            for key in sorted(value):
                yield from walk(value[key], f'{prefix}{key}.')
        elif isinstance(value, list) and value and isinstance(
                value[0], (list, dict)):
            for i, item in enumerate(value):
                yield from walk(item, f'{prefix}{i}.')
        else:
            yield prefix[:-1], value

    return walk(report, '')


def render_text(report: dict) -> str:
    'Human rendering, derived from the JSON document by a generic walk.'
    lines = []
    for path, value in _leaves(report):
        text = ', '.join(map(str, value)) if isinstance(value, list) else value
        lines.append(f'{path}: {text}')
    return '\n'.join(lines)


def _csv_field(text: str) -> str:
    """text as one CSV field (RFC 4180): quoted, its quotes doubled, when
    it holds a comma, a quote or a line break, or starts with a space,
    which a reader that skips initial spaces would drop."""
    if any(c in text for c in ',"\n\r') or text.startswith(' '):
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(report: dict) -> str:
    """CSV rendering.

    Betti reports become the (n, m) grid; anything else flattens to one
    row per leaf of the JSON document, in the dotted-path order of the
    text rendering: the path, then the value, or each item of a list,
    items separated by a comma and a space as in the text rendering.  A
    field is quoted only when it must be (_csv_field), so a reader that
    skips initial spaces recovers every path and item.
    """
    if 'grid' in report:
        header = 'n\\m,' + ','.join(
            str(m) for m in range(report['m_max'] + 1))
        body = [f'{n},' + ','.join(str(v) for v in row)
                for n, row in enumerate(report['grid'])]
        return '\n'.join([header] + body)
    rows = []
    for path, value in _leaves(report):
        items = value if isinstance(value, list) else [value]
        rows.append(_csv_field(path) + ','
                    + ', '.join(_csv_field(str(v)) for v in items))
    return '\n'.join(rows)


RENDERERS = {'text': render_text, 'csv': render_csv}


def _cache_path(cache_dir: str, key: dict) -> str:
    return os.path.join(cache_dir, f'koszulity-{_digest(key)}.json')


def _unusable_cache(cache_dir: str, exc: OSError) -> InputError:
    return InputError(f'cannot use cache directory {cache_dir}: {exc}')


def _with_cache(config: RunConfig, key: dict, compute) -> dict:
    """Run compute() through the cache; the timings section is attached
    afterwards so cached and fresh reports differ only there.

    An entry that cannot be read as a JSON object with the key's
    schema_version and command is a miss and is rewritten.  Entries are
    written to a temporary file and renamed into place, so a reader never
    sees a partly written one.  A directory that
    cannot be created or written to is an input error.
    """
    path = None
    if config.cache_dir is not None:
        try:
            os.makedirs(config.cache_dir, exist_ok=True)
        except OSError as exc:
            raise _unusable_cache(config.cache_dir, exc) from None
        path = _cache_path(config.cache_dir, key)
        try:
            with open(path) as fh:
                report = json.load(fh)
        except (OSError, ValueError, RecursionError):
            report = None
        if (isinstance(report, dict)
                and report.get('schema_version') == key['schema']
                and report.get('command') == key['command']):
            report['timings'] = {'total_s': 0.0, 'cached': True}
            return report
    start = time.perf_counter()
    report = compute()
    elapsed = time.perf_counter() - start
    if path is not None:
        tmp = f'{path}.{os.getpid()}.tmp'
        try:
            with open(tmp, 'w') as fh:
                write_json(report, fh)
            os.replace(tmp, path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise _unusable_cache(config.cache_dir, exc) from None
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
           'field': config.field_text}
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
                           output_format=args.output_format,
                           cache_dir=args.cache,
                           parallelism=args.jobs)
        report = _dispatch(args, config)
        if config.output_format == 'json':
            write_json(report, sys.stdout)
        else:
            sys.stdout.write(RENDERERS[config.output_format](report))
        sys.stdout.write('\n')
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
