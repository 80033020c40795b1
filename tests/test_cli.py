"""The command-line frontend, run in-process through main()."""

import hashlib
import json
import os
import signal
import sys
import time
import traceback

import pytest

from koszulity.cli import main
from conftest import deadline

DIAMOND_DOC = {'elements': ['0', 'a', 'b', '1'],
               'covers': [['0', 'a'], ['0', 'b'], ['a', '1'], ['b', '1']]}
P_BAD_DOC = {'elements': ['0', 'a', 'b', 'c', 'd', '1'],
             'covers': [['0', 'a'], ['0', 'b'], ['a', 'c'], ['b', 'd'],
                        ['c', '1'], ['d', '1']]}


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / 'diamond.json'
    path.write_text(json.dumps(DIAMOND_DOC))
    return str(path)


@pytest.fixture
def p_bad_file(tmp_path):
    path = tmp_path / 'pbad.json'
    path.write_text(json.dumps(P_BAD_DOC))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_diamond(capsys, diamond_file):
    code, out, err = run(capsys, 'check', '--poset', diamond_file,
                         '--jobs', '1')
    assert code == 0
    report = json.loads(out)
    assert report['verdict'] is True
    assert report['witness_weights'] == []
    assert report['ring']['verdict'] is True
    assert report['coring']['verdict'] is True
    assert report['duality'] == {'dual_is_incidence_coring': True,
                                 'dual_pair_almost_koszul': True,
                                 'double_dual': True}
    assert report['schema_version'] == 4


def test_check_pbad_witness(capsys, p_bad_file):
    code, out, _ = run(capsys, 'check', '--poset', p_bad_file, '--jobs', '1')
    assert code == 0, 'a false verdict is still a successful computation'
    report = json.loads(out)
    assert report['verdict'] is False
    assert report['witness_weights'] == [3]


def test_check_parallel_matches_serial(capsys, diamond_file):
    _, serial, _ = run(capsys, 'check', '--poset', diamond_file,
                       '--jobs', '1')
    _, parallel, _ = run(capsys, 'check', '--poset', diamond_file,
                         '--jobs', '2')
    a, b = json.loads(serial), json.loads(parallel)
    a.pop('timings'), b.pop('timings')
    assert a == b


def test_betti_csv_diagonal(capsys, diamond_file):
    code, out, _ = run(capsys, 'betti', '--poset', diamond_file,
                       '--format', 'csv', '--jobs', '1')
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == 'n\\m,0,1,2,3,4'
    grid = [line.split(',')[1:] for line in lines[1:]]
    assert [grid[n][n] for n in range(3)] == ['4', '4', '1']
    off = [grid[n][m] for n in range(5) for m in range(5) if n != m]
    assert set(off) == {'0'}


def test_betti_coring_side(capsys, p_bad_file):
    code, out, _ = run(capsys, 'betti', '--poset', p_bad_file, '--side',
                       'coring', '--jobs', '1')
    report = json.loads(out)
    assert report['kind'] == 'Ext'
    assert [2, 3, 1] in report['entries']


@pytest.mark.parametrize('argv', [
    ['check', '--poset', None, '--max-weight', '2'],
    ['corpus', '--max-elements', '6', '--max-weight', '2']])
def test_no_weight_cap_flag(capsys, p_bad_file, argv):
    # the sweep window follows from the input, and a smaller one would
    # call p_bad Koszul: there is no flag to set it
    argv = [p_bad_file if a is None else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ['--jobs', '1'])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ''
    assert 'unrecognized arguments: --max-weight 2' in out.err


def test_shriek_lists_generators(capsys, diamond_file):
    code, out, _ = run(capsys, 'shriek', '--poset', diamond_file,
                       '--jobs', '1')
    report = json.loads(out)
    assert report['generators'] == {
        'zeta_{0,1}': 'e_{0,a} (x) e_{a,1} + e_{0,b} (x) e_{b,1}'}
    assert report['coring_shriek_dims'] == [4, 4, 1]
    assert report['ring_shriek_dims'] == [4, 4, 1]


def test_dual_report(capsys, diamond_file):
    code, out, _ = run(capsys, 'dual', '--poset', diamond_file, '--jobs', '1')
    report = json.loads(out)
    assert report['dual_is_incidence_coring'] is True
    assert report['double_dual_ring'] is True
    assert report['double_dual_coring'] is True
    assert report['verdicts_agree'] is True


def test_corpus_sweep(capsys):
    code, out, _ = run(capsys, 'corpus', '--max-elements', '3', '--jobs', '1')
    assert code == 0
    report = json.loads(out)
    assert report['summary'] == {'posets': 8, 'koszul': 8, 'not_koszul': 0,
                                 'disagreements': 0, 'agreement': '100%'}
    assert len(report['rows']) == 8
    assert all(row['sound'] for row in report['rows'])


def test_corpus_above_the_cap_fails_before_enumerating(capsys, monkeypatch):
    from koszulity import cli
    from koszulity.poset import MAX_CORPUS_ELEMENTS
    calls = []
    monkeypatch.setattr(cli, 'enumerate_corpus',
                        lambda *args, **kw: calls.append(args) or iter(()))
    code, out, err = run(capsys, 'corpus', '--max-elements',
                         str(MAX_CORPUS_ELEMENTS + 1), '--jobs', '1')
    assert code == 2
    assert out == ''
    assert '--max-elements' in err
    assert calls == []


def _without_timings(out: str) -> str:
    report = json.loads(out)
    report.pop('timings')
    return json.dumps(report, sort_keys=True, indent=2)


def test_corpus_parallel(capsys):
    # 86 posets at size 5: more than one chunk for each of the two workers
    for size, jobs in (('3', '4'), ('5', '2')):
        _, serial, _ = run(capsys, 'corpus', '--max-elements', size,
                           '--jobs', '1')
        _, parallel, _ = run(capsys, 'corpus', '--max-elements', size,
                             '--jobs', jobs)
        assert _without_timings(serial) == _without_timings(parallel)


@pytest.fixture
def forks(monkeypatch):
    'The pids of the children os.fork starts; starting a pool fails.'
    import concurrent.futures
    started = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    def no_pool(*args, **kw):
        raise AssertionError('a process pool was started')

    monkeypatch.setattr(os, 'fork', counting_fork)
    # _run_tasks imports the pool class from here when a pool starts
    monkeypatch.setattr(concurrent.futures, 'ProcessPoolExecutor', no_pool)
    return started


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_check_forks_one_child_per_side(capsys, forks, diamond_file):
    code, _, _ = run(capsys, 'check', '--poset', diamond_file, '--jobs', '8')
    assert code == 0 and len(forks) == 2
    _assert_no_children()


def test_small_corpus_forks_one_child_per_poset(capsys, forks):
    _, serial, _ = run(capsys, 'corpus', '--max-elements', '2',
                       '--jobs', '1')
    code, forked, _ = run(capsys, 'corpus', '--max-elements', '2',
                          '--jobs', '4')
    assert code == 0 and len(forks) == json.loads(serial)['summary'][
        'posets'] == 3
    assert _without_timings(serial) == _without_timings(forked)
    _assert_no_children()


def test_without_fork_the_sides_run_in_this_process(capsys, monkeypatch,
                                                     forks, diamond_file):
    _, serial, _ = run(capsys, 'check', '--poset', diamond_file,
                       '--jobs', '1')
    monkeypatch.delattr(os, 'fork')
    code, out, _ = run(capsys, 'check', '--poset', diamond_file,
                       '--jobs', '2')
    assert code == 0 and forks == []
    assert _without_timings(serial) == _without_timings(out)


def test_a_disagreement_in_a_child_exits_3_and_reaps_its_sibling(
        capsys, monkeypatch, forks, diamond_file):
    from koszulity import cli
    from koszulity.errors import CriteriaDisagreement

    def ring_disagrees(payload):
        if payload['side'] == 'ring':
            raise CriteriaDisagreement('ring side disagrees')
        time.sleep(60)   # the coring side is still running

    monkeypatch.setattr(cli, '_decide_task', ring_disagrees)
    with deadline(30):
        code, out, err = run(capsys, 'check', '--poset', diamond_file,
                             '--jobs', '2')
    assert code == 3 and out == '' and len(forks) == 2
    assert err == ('criteria disagreement (this should never happen): '
                   'ring side disagrees\n')
    _assert_no_children()


def test_a_killed_child_makes_the_call_raise(capsys, monkeypatch, forks,
                                             diamond_file):
    from koszulity import cli
    original = cli._decide_task

    def coring_killed(payload):
        if payload['side'] == 'coring':
            os.kill(os.getpid(), signal.SIGKILL)
        return original(payload)

    monkeypatch.setattr(cli, '_decide_task', coring_killed)
    with deadline(30), pytest.raises(RuntimeError, match='exit code -9'):
        main(['check', '--poset', diamond_file, '--jobs', '2'])
    assert capsys.readouterr().out == ''
    _assert_no_children()


def test_an_error_in_the_parent_reaps_a_running_child(capsys, monkeypatch,
                                                      forks, diamond_file):
    from koszulity import cli
    counting_fork = os.fork

    def second_fork_fails():
        if forks:
            raise OSError('no second child')
        return counting_fork()

    monkeypatch.setattr(cli, '_decide_task', lambda payload: time.sleep(60))
    monkeypatch.setattr(os, 'fork', second_fork_fails)
    with deadline(30), pytest.raises(OSError, match='no second child'):
        main(['check', '--poset', diamond_file, '--jobs', '2'])
    assert len(forks) == 1 and capsys.readouterr().out == ''
    _assert_no_children()


def test_text_format_is_derived_from_json(capsys, diamond_file):
    _, out, _ = run(capsys, 'check', '--poset', diamond_file,
                    '--format', 'text', '--jobs', '1')
    assert 'verdict: True' in out
    assert 'duality.double_dual: True' in out


def _canonical(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, indent=2)


def test_json_reports_keep_their_byte_form(capsys, tmp_path, diamond_file):
    cache = tmp_path / 'cache'
    _, check, _ = run(capsys, 'check', '--poset', diamond_file,
                      '--cache', str(cache), '--jobs', '1')
    _, corpus, _ = run(capsys, 'corpus', '--max-elements', '3', '--jobs', '1')
    assert check == _canonical(check) + '\n'
    assert corpus == _canonical(corpus) + '\n'
    (entry,) = cache.iterdir()
    assert entry.read_text() == _canonical(entry.read_text())


def test_cache_roundtrip(capsys, tmp_path, diamond_file):
    cache = str(tmp_path / 'cache')
    _, first, _ = run(capsys, 'check', '--poset', diamond_file,
                      '--cache', cache, '--jobs', '1')
    _, second, _ = run(capsys, 'check', '--poset', diamond_file,
                       '--cache', cache, '--jobs', '1')
    a, b = json.loads(first), json.loads(second)
    assert a['timings']['cached'] is False
    assert b['timings']['cached'] is True
    a.pop('timings'), b.pop('timings')
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cache_key_separates_commands(capsys, tmp_path, diamond_file):
    cache = str(tmp_path / 'cache')
    run(capsys, 'check', '--poset', diamond_file, '--cache', cache,
        '--jobs', '1')
    code, out, _ = run(capsys, 'betti', '--poset', diamond_file,
                       '--cache', cache, '--jobs', '1')
    report = json.loads(out)
    assert report['command'] == 'betti'
    assert report['timings']['cached'] is False


def test_cache_keeps_labels_of_isomorphic_inputs(capsys, tmp_path,
                                                 diamond_file):
    relabelled = tmp_path / 'relabelled.json'
    doc = {'elements': ['top', 'x', 'bot', 'y'],
           'covers': [['x', 'top'], ['bot', 'x'], ['bot', 'y'],
                      ['y', 'top']]}
    relabelled.write_text(json.dumps(doc))
    cache = str(tmp_path / 'cache')
    reports = []
    for path in (diamond_file, str(relabelled)):
        _, out, _ = run(capsys, 'shriek', '--poset', path, '--cache', cache,
                        '--jobs', '1')
        reports.append(json.loads(out))
    first, second = reports
    assert first['input']['elements'] == DIAMOND_DOC['elements']
    assert second['input']['elements'] == doc['elements']
    assert second['input']['covers'] == doc['covers']
    assert second['timings']['cached'] is False
    assert list(second['generators']) == ['zeta_{bot,top}']
    assert first['input']['digest'] != second['input']['digest']


def _sha256_of(document) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()).hexdigest()


def _count_canonical_forms(monkeypatch) -> list:
    'Patch poset.canonical_form; return the list of the callers\' stacks.'
    from koszulity import poset
    calls = []
    original = poset.canonical_form

    def counting(*args):
        calls.append([frame.name for frame in traceback.extract_stack()])
        return original(*args)

    monkeypatch.setattr(poset, 'canonical_form', counting)
    return calls


@pytest.mark.parametrize('command', ['check', 'betti', 'shriek', 'dual'])
def test_digest_hashes_the_literal_document(capsys, monkeypatch,
                                            diamond_file, command):
    calls = _count_canonical_forms(monkeypatch)
    code, out, _ = run(capsys, command, '--poset', diamond_file,
                       '--jobs', '1')
    assert code == 0
    assert calls == []
    report = json.loads(out)
    assert report['schema_version'] == 4
    assert report['input']['digest'] == _sha256_of(DIAMOND_DOC)


def test_reordered_document_gets_its_own_digest(capsys, tmp_path):
    reordered = {**DIAMOND_DOC, 'elements': DIAMOND_DOC['elements'][::-1]}
    path = tmp_path / 'reordered.json'
    path.write_text(json.dumps(reordered))
    _, out, _ = run(capsys, 'check', '--poset', str(path), '--jobs', '1')
    digest = json.loads(out)['input']['digest']
    assert digest == _sha256_of(reordered) != _sha256_of(DIAMOND_DOC)


def test_corpus_digests_rows_and_enumerates_with_canonical_forms(
        capsys, monkeypatch):
    calls = _count_canonical_forms(monkeypatch)
    code, out, _ = run(capsys, 'corpus', '--max-elements', '3', '--jobs', '1')
    assert code == 0
    assert calls
    assert all('enumerate_corpus' in stack for stack in calls)
    report = json.loads(out)
    assert report['schema_version'] == 4
    for row in report['rows']:
        assert row['digest'] == _sha256_of(
            {'elements': [str(i) for i in range(row['elements'])],
             'covers': row['covers']})


def test_corpus_enumerates_in_one_walk(capsys, monkeypatch):
    calls = _count_canonical_forms(monkeypatch)
    code, _, _ = run(capsys, 'corpus', '--max-elements', '5', '--jobs', '1')
    assert code == 0
    # one walk to size 5; one walk per size would take 219
    assert len(calls) == 171


def test_corrupt_cache_entry_is_a_miss(capsys, tmp_path, diamond_file):
    cache = tmp_path / 'cache'
    _, fresh, _ = run(capsys, 'betti', '--poset', diamond_file,
                      '--cache', str(cache), '--jobs', '1')
    (entry,) = cache.iterdir()
    entry.write_text('{"truncated": ')
    code, out, _ = run(capsys, 'betti', '--poset', diamond_file,
                       '--cache', str(cache), '--jobs', '1')
    assert code == 0
    report = json.loads(out)
    assert report['timings']['cached'] is False
    assert [p.name for p in cache.iterdir()] == [entry.name]
    rewritten = json.loads(entry.read_text())
    report.pop('timings')
    assert rewritten == report
    expected = json.loads(fresh)
    expected.pop('timings')
    assert rewritten == expected


@pytest.mark.parametrize('entry_text', [
    '{"verdict": 0}',
    '{"schema_version": 3, "command": "check", "verdict": true}',
    '{"schema_version": 4, "command": "betti", "verdict": true}'],
    ids=['no-header', 'old-schema', 'other-command'])
def test_cache_entry_of_another_report_is_a_miss(capsys, tmp_path,
                                                 diamond_file, entry_text):
    cache = tmp_path / 'cache'
    _, fresh, _ = run(capsys, 'check', '--poset', diamond_file,
                      '--cache', str(cache), '--jobs', '1')
    (entry,) = cache.iterdir()
    entry.write_text(entry_text)
    code, out, _ = run(capsys, 'check', '--poset', diamond_file,
                       '--cache', str(cache), '--jobs', '1')
    assert code == 0
    report, expected = json.loads(out), json.loads(fresh)
    assert report.pop('timings')['cached'] is False
    expected.pop('timings')
    assert report == expected == json.loads(entry.read_text())


def test_deeply_nested_cache_entry_is_a_miss(capsys, tmp_path,
                                             diamond_file):
    cache = tmp_path / 'cache'
    _, fresh, _ = run(capsys, 'betti', '--poset', diamond_file,
                      '--cache', str(cache), '--jobs', '1')
    (entry,) = cache.iterdir()
    entry.write_text('[' * 200000)
    code, out, _ = run(capsys, 'betti', '--poset', diamond_file,
                       '--cache', str(cache), '--jobs', '1')
    assert code == 0
    report, expected = json.loads(out), json.loads(fresh)
    assert report.pop('timings')['cached'] is False
    expected.pop('timings')
    assert report == expected == json.loads(entry.read_text())


def test_cache_that_is_a_file_exits_2(capsys, tmp_path, diamond_file):
    not_a_dir = tmp_path / 'cache'
    not_a_dir.write_text('a regular file')
    code, out, err = run(capsys, 'check', '--poset', diamond_file,
                         '--cache', str(not_a_dir), '--jobs', '1')
    assert code == 2 and out == ''
    assert err.startswith(f'error: cannot use cache directory {not_a_dir}: ')
    assert len(err.splitlines()) == 1


def test_failed_cache_write_exits_2_and_leaves_no_temporary_file(
        capsys, monkeypatch, tmp_path, diamond_file):
    from koszulity import cli
    cache = tmp_path / 'cache'

    def refuse(src, dst):
        raise PermissionError(13, 'Permission denied', dst)

    monkeypatch.setattr(cli.os, 'replace', refuse)
    code, out, err = run(capsys, 'betti', '--poset', diamond_file,
                         '--cache', str(cache), '--jobs', '1')
    assert code == 2 and out == ''
    assert err.startswith(f'error: cannot use cache directory {cache}: ')
    assert list(cache.iterdir()) == []


def test_check_builds_the_shriek_pair_once(capsys, monkeypatch,
                                           diamond_file):
    from koszulity import koszul
    calls = []
    original = koszul.make_pair_shriek_ring

    def counting(A):
        calls.append(A)
        return original(A)

    # every koszulity module that imported the pair constructor, CLI included
    for name, module in list(sys.modules.items()):
        if (name.startswith('koszulity') and
                getattr(module, 'make_pair_shriek_ring', None) is original):
            monkeypatch.setattr(module, 'make_pair_shriek_ring', counting)
    code, out, _ = run(capsys, 'check', '--poset', diamond_file,
                       '--jobs', '1')
    assert code == 0
    assert json.loads(out)['duality']['dual_pair_almost_koszul'] is True
    assert len(calls) == 1


def test_check_reuses_the_decided_incidence_structures(
        capsys, monkeypatch, diamond_file):
    from koszulity import poset
    calls = {'incidence_ring': 0, 'incidence_coring': 0}
    for name in calls:
        original = getattr(poset, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for mod_name, module in list(sys.modules.items()):
            if (mod_name.startswith('koszulity') and
                    getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counting)
    code, out, _ = run(capsys, 'check', '--poset', diamond_file,
                       '--jobs', '1')
    assert code == 0
    assert json.loads(out)['duality']['dual_is_incidence_coring'] is True
    # the ring worker's ring, the coring worker's coring and the ring the
    # coring worker checks it against
    assert calls['incidence_ring'] <= 2
    assert calls['incidence_coring'] == 1


def test_dual_builds_the_dual_of_the_ring_once(capsys, monkeypatch,
                                               diamond_file):
    from koszulity import duality
    calls = {'graded_left_dual_of_ring': 0, 'graded_left_dual_of_coring': 0}
    for name in calls:
        original = getattr(duality, name)

        def counting(X, name=name, original=original):
            calls[name] += 1
            return original(X)

        for mod_name, module in list(sys.modules.items()):
            if (mod_name.startswith('koszulity') and
                    getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counting)
    code, out, _ = run(capsys, 'dual', '--poset', diamond_file,
                       '--jobs', '1')
    assert code == 0
    assert json.loads(out)['verdicts_agree'] is True
    # ring duals: of A (in dual_pair) and of the dual of C; coring duals:
    # of the shriek coring (in dual_pair), of the dual of A, and of C (double
    # dual of C); the incidence duality check builds none
    assert calls == {'graded_left_dual_of_ring': 2,
                     'graded_left_dual_of_coring': 3}


@pytest.mark.parametrize('command', ['check', 'betti', 'shriek', 'dual'])
def test_each_command_reads_its_poset_once(capsys, monkeypatch, diamond_file,
                                           command):
    from koszulity import cli
    reads = []
    original = cli.load_poset

    def counting(path):
        reads.append(path)
        return original(path)

    monkeypatch.setattr(cli, 'load_poset', counting)
    code, _, _ = run(capsys, command, '--poset', diamond_file, '--jobs', '1')
    assert code == 0
    assert reads == [diamond_file]


def test_disagreement_message_names_the_input_file(capsys, monkeypatch,
                                                   diamond_file):
    from koszulity import cli
    original = cli._decide_task

    def flip_coring(payload):
        verdict, duality = original(payload)
        if payload['side'] == 'coring':
            verdict = {**verdict, 'verdict': not verdict['verdict']}
        return verdict, duality

    monkeypatch.setattr(cli, '_decide_task', flip_coring)
    code, out, err = run(capsys, 'check', '--poset', diamond_file,
                         '--jobs', '1')
    assert code == 3 and out == ''
    assert err.startswith('criteria disagreement')
    assert err.rstrip().endswith(f'for {diamond_file}')


def test_failed_invariant_exits_3_with_a_message(capsys, monkeypatch,
                                                 diamond_file):
    from koszulity.homology import ComplexSlice
    # every slice past the sweep bound now looks nonempty
    monkeypatch.setattr(ComplexSlice, 'total_dim', lambda self: 1)
    code, out, err = run(capsys, 'check', '--poset', diamond_file,
                         '--jobs', '1')
    assert code == 3 and out == ''
    assert err == ('internal invariant failed (this should never happen): '
                   'slice persists past the sweep bound\n')


def test_exit_codes_on_bad_input(capsys, tmp_path):
    missing = str(tmp_path / 'missing.json')
    code, _, err = run(capsys, 'check', '--poset', missing)
    assert code == 2 and 'cannot read' in err

    garbage = tmp_path / 'garbage.json'
    garbage.write_text('{not json')
    code, _, err = run(capsys, 'check', '--poset', str(garbage))
    assert code == 2 and 'not valid JSON' in err

    non_graded = tmp_path / 'nongraded.json'
    non_graded.write_text(json.dumps({
        'elements': ['x', 'a', 'b', 'c', 'y'],
        'covers': [['x', 'a'], ['a', 'b'], ['b', 'y'], ['x', 'c'],
                   ['c', 'y']]}))
    code, _, err = run(capsys, 'check', '--poset', str(non_graded))
    assert code == 2 and 'not graded' in err


def test_non_utf8_poset_file_exits_2(capsys, tmp_path):
    utf16 = tmp_path / 'utf16.json'
    utf16.write_bytes(json.dumps(DIAMOND_DOC).encode('utf-16'))
    assert utf16.read_bytes()[:2] == b'\xff\xfe'
    code, out, err = run(capsys, 'check', '--poset', str(utf16))
    assert code == 2 and out == ''
    assert err.startswith(f'error: {utf16} is not UTF-8 text: ')
    assert len(err.splitlines()) == 1


def test_deeply_nested_poset_file_exits_2(capsys, tmp_path):
    deep = tmp_path / 'deep.json'
    deep.write_text('[' * 200000)
    code, out, err = run(capsys, 'check', '--poset', str(deep), '--jobs', '1')
    assert code == 2 and out == ''
    assert err == f'error: {deep} nests JSON too deeply to read\n'


def test_exit_code_on_bad_flags(capsys, diamond_file):
    code, _, err = run(capsys, 'check', '--poset', diamond_file,
                       '--field', 'fp:6')
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        run(capsys, 'check', '--poset', diamond_file, '--no-such-flag')
    assert exc.value.code == 2
    code, _, err = run(capsys, 'check', '--poset', diamond_file,
                       '--jobs', '0')
    assert code == 2


def test_run_config_is_a_value():
    import pickle
    from koszulity.cli import RunConfig, parse_field
    from koszulity.errors import InputError

    def config(jobs):
        return RunConfig(field=parse_field('fp:3'), field_text='fp:3',
                         output_format='json',
                         cache_dir=None, parallelism=jobs)

    assert RunConfig._fields == ('field', 'field_text', 'output_format',
                                 'cache_dir', 'parallelism')
    a, b = config(2), config(2)
    assert a == b and hash(a) == hash(b) and a != config(1)
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a).startswith("RunConfig(field=FieldSpec(kind='prime_field'")
    with pytest.raises(AttributeError):
        a.parallelism = 4
    with pytest.raises(InputError, match='--jobs must be at least 1'):
        config(0)


def test_prime_field_flag(capsys, p_bad_file):
    code, out, _ = run(capsys, 'check', '--poset', p_bad_file,
                       '--field', 'fp:1048583', '--jobs', '1')
    assert code == 0
    report = json.loads(out)
    assert report['verdict'] is False
    assert report['config']['field'] == 'fp:1048583'


@pytest.mark.parametrize('spelling', ['fp: 3', 'fp:+3', 'fp:03', 'fp:٣',
                                      'fp:3 ', 'fp:0_3'])
def test_other_spellings_of_a_prime_are_refused(capsys, tmp_path,
                                                diamond_file, spelling):
    # one field, one spelling: the report echoes it and the cache key
    # holds it, so F_3 written another way would give another report
    cache = str(tmp_path / 'cache')
    code, out, err = run(capsys, 'check', '--poset', diamond_file,
                         '--field', spelling, '--cache', cache, '--jobs', '1')
    assert (code, out) == (2, '')
    assert 'write it fp:3' in err
    assert not os.path.exists(cache) or not os.listdir(cache)
    code, out, _ = run(capsys, 'check', '--poset', diamond_file,
                       '--field', 'fp:3', '--jobs', '1')
    assert code == 0 and json.loads(out)['config'] == {'field': 'fp:3'}


@pytest.mark.parametrize('spelling', ['fp:', 'fp:x', 'fp:3.0', 'fp:-', 'fp'])
def test_field_spellings_without_a_number_are_refused(capsys, diamond_file,
                                                      spelling):
    code, out, err = run(capsys, 'check', '--poset', diamond_file,
                         '--field', spelling, '--jobs', '1')
    assert (code, out) == (2, '')
    assert 'rational or fp:P' in err


def _csv_rows(text: str) -> list:
    import csv
    import io
    return list(csv.reader(io.StringIO(text), skipinitialspace=True))


def _leaf_paths(report: dict) -> list:
    from koszulity.cli import _leaves
    return [path for path, _ in _leaves(report)]


def test_csv_reads_back_every_key_and_label(capsys, tmp_path):
    # labels with a comma, a colon and space, a double quote, a line
    # break and a leading space; the shriek report's keys hold commas
    elements = ['lo', 'x,y', 'z: w', 'say "hi"', 'two\nlines', ' pad']
    covers = [['lo', 'x,y'], ['lo', 'z: w'], ['x,y', 'say "hi"'],
              ['z: w', 'say "hi"'], ['x,y', 'two\nlines'],
              ['z: w', 'two\nlines'], ['say "hi"', ' pad'],
              ['two\nlines', ' pad']]
    path = tmp_path / 'odd.json'
    path.write_text(json.dumps({'elements': elements, 'covers': covers}))
    for command in ('check', 'shriek', 'dual'):
        _, out, _ = run(capsys, command, '--poset', str(path), '--jobs', '1')
        report = json.loads(out)
        code, out, _ = run(capsys, command, '--poset', str(path), '--jobs',
                           '1', '--format', 'csv')
        assert code == 0
        rows = _csv_rows(out)
        report.pop('timings')
        rows = [row for row in rows if not row[0].startswith('timings.')]
        assert [row[0] for row in rows] == _leaf_paths(report)
        by_path = {row[0]: row[1:] for row in rows}
        assert by_path['input.elements'] == elements
        assert [by_path[f'input.covers.{i}'] for i in range(len(covers))] \
            == covers
        if command == 'shriek':
            for key, value in report['generators'].items():
                assert by_path[f'generators.{key}'] == [value]


def test_csv_needing_no_quotes_is_the_text_rendering(capsys, p_bad_file):
    # where no field needs quoting, a row is the text line with its first
    # ': ' turned into a comma
    for command in ('check', 'dual', 'betti'):
        argv = [command, '--poset', p_bad_file, '--jobs', '1']
        _, text, _ = run(capsys, *argv, '--format', 'text')
        _, out, _ = run(capsys, *argv, '--format', 'csv')
        if command == 'betti':
            assert out.startswith('n\\m,0,1,2')
            continue
        strip = lambda rendering: [line for line in rendering.splitlines()
                                   if not line.startswith('timings.')]
        assert strip(out) == [line.replace(': ', ',', 1)
                              for line in strip(text)]
