"""The command-line frontend, run in-process through main()."""

import json
import sys

import pytest

from koszulity.cli import main

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
    assert report['schema_version'] == 1


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


def test_betti_max_weight_override(capsys, diamond_file):
    _, out, _ = run(capsys, 'betti', '--poset', diamond_file,
                    '--max-weight', '3', '--jobs', '1')
    report = json.loads(out)
    assert report['m_max'] == 3
    assert len(report['grid'][0]) == 4


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


def test_corpus_parallel(capsys):
    _, serial, _ = run(capsys, 'corpus', '--max-elements', '3', '--jobs', '1')
    _, parallel, _ = run(capsys, 'corpus', '--max-elements', '3',
                         '--jobs', '4')
    a, b = json.loads(serial), json.loads(parallel)
    a.pop('timings'), b.pop('timings')
    assert a == b


def test_text_format_is_derived_from_json(capsys, diamond_file):
    _, out, _ = run(capsys, 'check', '--poset', diamond_file,
                    '--format', 'text', '--jobs', '1')
    assert 'verdict: True' in out
    assert 'duality.double_dual: True' in out


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
    assert first['input']['digest'] == second['input']['digest']


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


def test_exit_code_on_bad_flags(capsys, diamond_file):
    code, _, err = run(capsys, 'check', '--poset', diamond_file,
                       '--field', 'fp:6')
    assert code == 2
    code, _, err = run(capsys, 'check', '--poset', diamond_file,
                       '--max-weight', 'many')
    assert code == 2
    code, _, err = run(capsys, 'check', '--poset', diamond_file,
                       '--jobs', '0')
    assert code == 2


def test_prime_field_flag(capsys, p_bad_file):
    code, out, _ = run(capsys, 'check', '--poset', p_bad_file,
                       '--field', 'fp:1048583', '--jobs', '1')
    assert code == 0
    report = json.loads(out)
    assert report['verdict'] is False
    assert report['config']['field'] == 'fp:1048583'
