"""What a CLI call loads: the algebra only where a report is computed, and
a process pool only for a corpus.

Each probe runs in a fresh interpreter, so the modules it finds loaded are
the ones its own imports and calls brought in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import koszulity

SRC = Path(__file__).resolve().parent.parent / 'src'
ALGEBRA = {'koszulity.bimodule', 'koszulity.graded_structures',
           'koszulity.homology', 'koszulity.koszul', 'koszulity.duality'}
# what the package itself used to pull in at start-up, and no call needs
STDLIB = {'dataclasses', 'inspect', 'concurrent.futures'}
# what only the corpus's process pool needs
POOL = {'concurrent.futures', 'multiprocessing'}
# a CLI call: main(argv[1:-1]), its report written to argv[-1]
CALL = ('import sys\nfrom koszulity.cli import main\n'
        'sys.stdout = open(sys.argv[-1], "w")\nmain(sys.argv[1:-1])\n'
        'sys.stdout.close()')
EXPORTS = '''
    AlmostKoszulPair BaseRing BettiTable Bimodule BimoduleMap ComplexSlice
    CriteriaDisagreement FieldSpec GradedCoring GradedPoset GradedRing
    InputError InvariantError KoszulVerdict KoszulityError PreconditionError
    RATIONALS SliceHomology SparseMatrix StructureError
    Subspace bar_complex_ring canonical_form cobar_complex_coring
    decide_koszul_coring decide_koszul_ring double_dual_check dual_label
    dual_pair enumerate_corpus ext_diagonal_products_surjective ext_table
    graded_left_dual_of_coring graded_left_dual_of_ring incidence_coring
    incidence_duality_check incidence_ring is_exact
    is_quadratic_coring_direct is_quadratic_direct is_strongly_graded_coring
    is_strongly_graded_ring koszul_complex_left koszul_complex_right
    left_dual make_pair_shriek_coring make_pair_shriek_ring parse_poset
    shriek_of_coring shriek_of_ring tensor tor_primitive_dims tor_table unit_bimodule zero_bimodule
    zeta_ring
'''.split()


def loaded_after(code: str, *argv) -> set:
    'The modules a fresh interpreter has loaded after running code.'
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get('PYTHONPATH')] if p])
    probe = (f'{code}\nimport sys\n'
             'sys.stderr.write("\\n" + " ".join(sorted(sys.modules)))')
    done = subprocess.run([sys.executable, '-c', probe, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return set(done.stderr.splitlines()[-1].split())


def test_importing_the_cli_loads_no_algebra():
    added = loaded_after('import koszulity.cli') - loaded_after('pass')
    assert 'koszulity.cli' in added
    assert not added & (ALGEBRA | STDLIB), sorted(added & (ALGEBRA | STDLIB))


@pytest.fixture
def diamond_file(tmp_path):
    poset = tmp_path / 'diamond.json'
    poset.write_text(json.dumps(
        {'elements': ['0', 'a', 'b', '1'],
         'covers': [['0', 'a'], ['0', 'b'], ['a', '1'], ['b', '1']]}))
    return str(poset)


def test_a_cache_hit_loads_no_algebra(tmp_path, diamond_file):
    argv = ['check', '--poset', diamond_file, '--cache', str(tmp_path / 'c'),
            '--jobs', '1']
    cold = loaded_after(CALL, *argv, str(tmp_path / 'cold.json'))
    warm = loaded_after(CALL, *argv, str(tmp_path / 'warm.json'))
    assert ALGEBRA <= cold
    assert not warm & ALGEBRA, sorted(warm & ALGEBRA)
    cold_report, warm_report = (json.loads((tmp_path / f).read_text())
                                for f in ('cold.json', 'warm.json'))
    assert (cold_report['timings']['cached'],
            warm_report['timings']['cached']) == (False, True)
    cold_report.pop('timings'), warm_report.pop('timings')
    assert cold_report == warm_report


def test_a_cold_check_on_two_workers_starts_no_pool(tmp_path, diamond_file):
    out = tmp_path / 'report.json'
    loaded = loaded_after(CALL, 'check', '--poset', diamond_file,
                          '--jobs', '2', str(out))
    assert ALGEBRA <= loaded
    assert not loaded & POOL, sorted(loaded & POOL)
    assert json.loads(out.read_text())['verdict'] is True


def test_package_exports_resolve_on_first_use():
    assert sorted(koszulity.__all__) == sorted(EXPORTS) and len(EXPORTS) == 56
    assert sorted(dir(koszulity)) == sorted(koszulity.__all__)
    from koszulity import GradedRing, graded_structures
    assert GradedRing is graded_structures.GradedRing
    for name in koszulity.__all__:
        assert getattr(koszulity, name) is not None
    with pytest.raises(AttributeError):
        koszulity.no_such_name
    with pytest.raises(ImportError):
        from koszulity import no_such_name   # noqa: F401
