"""The names and positional signatures that the benchmark's span tracer patches.

``bench/spans.py`` wraps each target of its FUNCTIONS and METHODS tables and
calls each key lambda with the target's own arguments.  A target that is
renamed, dropped or given a different positional signature breaks every traced
benchmark run, so the tables are checked here against the package.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "_bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py"
)
_TABLES = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_TABLES)
TARGETS = [(mod, None, attr, key) for mod, attr, _, key in _TABLES.FUNCTIONS] + [
    (mod, cls, attr, key) for mod, cls, attr, _, key in _TABLES.METHODS
]


@pytest.mark.parametrize(
    "mod, cls, attr, key", TARGETS, ids=[".".join(filter(None, t[:3])) for t in TARGETS]
)
def test_traced_target_exists_and_takes_its_key_arguments(mod, cls, attr, key):
    owner = importlib.import_module(mod)
    if cls is not None:
        owner = getattr(owner, cls)
        assert attr in vars(owner)  # the tracer reads the method off the class itself
        target = vars(owner)[attr]
    else:
        target = getattr(owner, attr)
    assert callable(target)
    if key is None:
        return
    params = inspect.signature(key).parameters.values()
    n_all = len(params)
    n_required = sum(p.default is inspect.Parameter.empty for p in params)
    signature = inspect.signature(target)
    for n in range(n_required, n_all + 1):
        signature.bind(*range(n))  # raises TypeError if the target cannot take n positionals
