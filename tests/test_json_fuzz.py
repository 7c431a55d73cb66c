"""Fuzzed algebra and representation JSON through the command line.

Each example replaces one field, at any depth, of a valid document by a
small JSON value.  Whatever the replacement, the run ends with an exit code
of the contract (0, 1, 2 or 3) and no exception escapes `main`; a non-list
where the loaders read a list is malformed input, exit 3.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tkkwb.cli import main
from tkkwb.jordan import algebra_to_dict, truncated_poly
from tkkwb.jspace import newton_rep, rep_to_dict

_ALGEBRA = algebra_to_dict(truncated_poly(2))
# a three-dimensional module, so that no single entry makes rho(1) another scalar
_NEWTON = newton_rep(1, 2)
_REP = rep_to_dict(_NEWTON, algebra_to_dict(_NEWTON.jordan))

# the list-valued fields, with "#" for a list index; a rep's inline algebra
# has the algebra's fields under "algebra"
_LIST_FIELDS = {("labels",), ("degrees",), ("unit",), ("mult",), ("mult", "#", "coords"),
                ("module", "labels"), ("module", "degrees"),
                ("rho",), ("rho", "#"), ("rho", "#", "#")}

_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3)
            | st.floats(-3, 3, allow_nan=False) | st.text(max_size=3))
_VALUES = _SCALARS | st.lists(_SCALARS, max_size=3) | \
    st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2)


def _paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _list_valued(path):
    keys = tuple("#" if isinstance(k, int) else k for k in path)
    return keys in _LIST_FIELDS or (keys[:1] == ("algebra",) and keys[1:] in _LIST_FIELDS)


@st.composite
def _mutations(draw, doc):
    path = draw(st.sampled_from(list(_paths(doc))))
    old = _get(doc, path)
    if isinstance(old, list) and draw(st.booleans()):
        # a digit string as long as the list it replaces
        return path, draw(st.text("0123456789", min_size=len(old), max_size=len(old)))
    return path, draw(_VALUES)


def _exit_code(tmp_path_factory, argv, doc):
    p = tmp_path_factory.mktemp("fuzz") / "input.json"
    p.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([*argv, str(p)])


def _check(tmp_path_factory, argv, doc, mutation):
    path, value = mutation
    code = _exit_code(tmp_path_factory, argv, _replaced(doc, path, value))
    assert code in (0, 1, 2, 3)
    if _list_valued(path) and not isinstance(value, list):
        assert code == 3


def test_valid_documents_pass(tmp_path_factory):
    assert _exit_code(tmp_path_factory, ("jordan", "check", "--algebra"), _ALGEBRA) == 0
    assert _exit_code(tmp_path_factory, ("jspace", "check", "--mode", "random", "--rep"),
                      _REP) == 0


@settings(deadline=None, max_examples=150)
@given(_mutations(_ALGEBRA))
def test_fuzzed_algebra_json_exits_by_contract(tmp_path_factory, mutation):
    _check(tmp_path_factory, ("jordan", "check", "--algebra"), _ALGEBRA, mutation)


@settings(deadline=None, max_examples=150)
@given(_mutations(_REP))
def test_fuzzed_rep_json_exits_by_contract(tmp_path_factory, mutation):
    # random-mode dominance, so that the symbolic size guard never answers
    _check(tmp_path_factory, ("jspace", "check", "--mode", "random", "--rep"), _REP, mutation)
