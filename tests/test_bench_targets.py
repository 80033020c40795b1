"""The benchmark's layer tracer still finds every function it wraps.

bench/spans.py patches named functions of the package from outside;
install() raises on a target that no longer exists, so a rename shows up
here rather than in a trace run.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / 'bench'


def test_trace_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for module, attr, _, _ in spans.TARGETS:
        owner = sys.modules[module]
        for part in attr.split('.'):
            owner = getattr(owner, part)
        assert not hasattr(owner, '__wrapped__'), f'{attr} left patched'
