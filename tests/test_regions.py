"""Chamber decompositions: construction, well-formedness, membership."""

import ast
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import pauli_volumes
from pauli_volumes.channel import ChannelSpec
from pauli_volumes.geometry import Frozen, SurdValue
from pauli_volumes.regions import AffineExpr, BoundChain, chambers, p_box
from pauli_volumes.volume import (
    _class_mask,
    _row_sum,
    check_conjectures,
    class_volume,
    region_for,
    supported_n_values,
)


def _chain_counts(chains, pts, margin=1e-9):
    """Float oracle for the ordered chambers: how many chains contain each
    raw eigenvalue sample. Rows are sorted first, and a chain that pins the
    lambda_{N+1} slot only sees rows whose last coordinate has that sorted
    rank. Also returns the rows within margin of a bound surface or a
    sorting tie, whose counts are unreliable."""
    mu = np.sort(pts, axis=1)
    slot = np.sum(pts[:, :-1] < pts[:, -1:], axis=1)
    near = np.any(np.diff(mu, axis=1) <= margin, axis=1)
    counts = np.zeros(len(pts), dtype=int)
    for ch in chains:
        scope = np.ones_like(near) if ch.nplus1_slot is None else slot == ch.nplus1_slot
        inside = scope.copy()
        for i, pair in enumerate(ch.bounds):
            x = mu[:, i]
            lo, hi = (
                float(e.const) + mu[:, : len(e.coeffs)] @ np.array(e.coeffs, float) for e in pair
            )
            inside &= (lo <= x) & (x <= hi)
            near |= scope & ((abs(x - lo) <= margin) | (abs(x - hi) <= margin))
        counts += inside
    return counts, near


def test_bound_chain_rejects_forward_references():
    future = AffineExpr(Fraction(0), (Fraction(1),))  # mentions x_0
    with pytest.raises(ValueError, match="later"):
        BoundChain(((AffineExpr(Fraction(0)), future),) * 2, label="bad")


def test_bound_chain_rejects_an_empty_chain():
    with pytest.raises(ValueError, match="empty"):
        BoundChain((), label="empty")


def test_affine_expr_keeps_exact_values_and_refuses_floats():
    third = Fraction(1, 3)
    expr = AffineExpr(third, [1, Fraction(-1, 2)])
    assert expr.const is third
    assert expr.coeffs == (Fraction(1), Fraction(-1, 2)) and type(expr.coeffs) is tuple
    assert all(type(c) is Fraction for c in expr.coeffs)
    with pytest.raises(TypeError, match="floating-point"):
        AffineExpr(0.1)
    with pytest.raises(TypeError, match="floating-point"):
        AffineExpr(Fraction(0), (Fraction(1), 0.5))


_FROZEN_VALUES = [
    pytest.param(lambda: SurdValue(Fraction(1), 8), "coeff", id="SurdValue"),
    pytest.param(lambda: AffineExpr(Fraction(1, 2), [1, Fraction(-1, 3)]), "const",
                 id="AffineExpr"),
    pytest.param(lambda: chambers(3, 4, "cp").chains[1], "label", id="BoundChain"),
    pytest.param(lambda: ChannelSpec.make(3, 4, ["1/2", 0, "-1/4", 0]), "lambdas",
                 id="ChannelSpec"),
]


@pytest.mark.parametrize(
    "make, field",
    [
        *_FROZEN_VALUES,
        pytest.param(lambda: class_volume(3, 4, "g"), "hs_volume", id="VolumeResult"),
        pytest.param(lambda: chambers(3, 4, "eb"), "chains", id="ChamberSet"),
        pytest.param(lambda: check_conjectures([3]).entries[0], "computed",
                     id="ConjectureEntry"),
    ],
)
def test_value_classes_are_immutable_values(make, field):
    """Two separately built equal values compare and hash equal and survive
    a pickle round trip; no field can be assigned or deleted."""
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


@pytest.mark.parametrize("make, field", _FROZEN_VALUES)
def test_frozen_values_are_type_strict_and_print_their_fields(make, field):
    """A Frozen value equals only a value of its own class, not the tuple of
    its fields nor another Frozen class with the same fields, and its repr
    is Name(field=value, ...) in slot order, which rebuilds an equal value."""
    a = make()
    cls = type(a)
    fields = tuple(getattr(a, name) for name in cls.__slots__)
    assert a != fields and fields != a
    twin = object.__new__(type("Twin", (Frozen,), {"__slots__": cls.__slots__}))
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(twin, name, value)
    assert a != twin and twin != a
    text = repr(a)
    body = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, fields))
    assert text == f"{cls.__name__}({body})"
    names = {"Fraction": Fraction, "AffineExpr": AffineExpr, cls.__name__: cls}
    assert eval(text, names) == a


def test_p_box_coordinate_counts():
    assert p_box(2, 3).n_vars == 3
    assert p_box(3, 4).n_vars == 4
    assert p_box(5, 3).n_vars == 4  # body plus the shared left-out coordinate
    assert p_box(5, 5).n_vars == 6
    box = p_box(4, 5)
    lo, hi = box.chains[0].bounds[2]
    assert (lo.const, hi.const) == (Fraction(-1, 3), Fraction(1))
    assert not box.ordered and box.symmetry_factor == 1


@pytest.mark.parametrize("d", range(2, 9))
def test_full_family_chamber_inventory(d):
    cp = chambers(d, d + 1, "cp")
    assert len(cp.chains) == d + 1
    assert cp.symmetry_factor == factorial(d + 1)
    labels = [ch.label for ch in cp.chains]
    assert labels[0] == "cp:sys1" and labels[-1] == "cp:sys3"
    assert labels[1:-1] == [f"cp:sys2:M={m}" for m in range(2, d + 1)]
    g, eb = chambers(d, d + 1, "g"), chambers(d, d + 1, "eb")
    assert len(g.chains) == 1
    assert len(eb.chains) == 1
    for cs in (cp, g, eb):
        for ch in cs.chains:
            assert len(ch.bounds) == d + 1
            lo0, hi0 = ch.bounds[0]
            assert not lo0.coeffs and not hi0.coeffs  # outer bounds constant


def _expected_inventory(d, N, tag):
    """(labels, slots, symmetry factor) of one chamber set, from the label
    schemes alone: N in {d, d+1} has no slots, N = 3 < d enumerates four."""
    if N >= d:
        n = d + 1
        if tag == "cp":
            labels = ["cp:sys1", *(f"cp:sys2:M={m}" for m in range(2, n)), "cp:sys3"]
        else:
            labels = [tag]
        return labels, [None] * len(labels), factorial(n)
    per_slot = [f"sys{k}:" for k in range(1, 5)] if tag == "cp" else [""]
    labels, slots = [], []
    for slot, name in enumerate(("min", "mid1", "mid2", "max")):
        labels += [f"{tag}-n3:{sys}slot={name}" for sys in per_slot]
        slots += [slot] * len(per_slot)
    return labels, slots, factorial(3)


@pytest.mark.parametrize("d", range(2, 9))
def test_chamber_inventory_at_every_supported_basis_count(d):
    for N in supported_n_values(d):
        for tag in ("cp", "g", "eb"):
            cs = region_for(d, N, tag)
            labels, slots, factor = _expected_inventory(d, N, tag)
            assert (cs.d, cs.N, cs.class_tag, cs.ordered) == (d, N, tag, True)
            assert len(cs.chains) == len(labels)
            assert [ch.label for ch in cs.chains] == labels
            assert [ch.nplus1_slot for ch in cs.chains] == slots
            assert cs.symmetry_factor == factor


def test_three_basis_chamber_inventory():
    cp = chambers(4, 3, "cp")
    assert len(cp.chains) == 16
    assert cp.symmetry_factor == 6
    slots = {ch.nplus1_slot for ch in cp.chains}
    assert slots == {0, 1, 2, 3}
    assert len(chambers(4, 3, "g").chains) == 4
    assert len(chambers(4, 3, "eb").chains) == 4
    with pytest.raises(ValueError, match="3 <= N <= d[+]1"):
        chambers(2, 2, "cp")
    with pytest.raises(ValueError, match="3 <= N <= d[+]1"):
        chambers(4, 6, "cp")
    with pytest.raises(ValueError, match="class"):
        chambers(4, 3, "p")


def test_qubit_outer_bounds():
    cp = chambers(2, 3, "cp")
    outer = [(ch.bounds[0][0].const, ch.bounds[0][1].const) for ch in cp.chains]
    assert outer == [
        (Fraction(-1), Fraction(-1, 3)),  # branch switch at the last level
        (Fraction(-1), Fraction(-1, 3)),
        (Fraction(-1, 3), Fraction(1)),  # all-positive branch
    ]


def test_three_basis_level_bounds_at_d4():
    """Spot-check the weighted bounds when the left-out eigenvalue sits on top:
    at the last level the upper bound must average the remaining weight d-2."""
    eb = {ch.nplus1_slot: ch for ch in chambers(4, 3, "eb").chains}
    lo, hi = eb[3].bounds[3]
    assert hi == AffineExpr(
        Fraction(1, 2), (Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2))
    )
    g = {ch.nplus1_slot: ch for ch in chambers(4, 3, "g").chains}
    lo, hi = g[3].bounds[3]
    assert hi == AffineExpr(
        Fraction(1, 2), (Fraction(3, 2), Fraction(-1, 2), Fraction(-1, 2))
    )
    # left-out eigenvalue at the bottom: its weight d-2 both shrinks the
    # remaining-weight denominator and shifts the d*lambda_min coefficient
    lo, hi = g[0].bounds[3]
    assert hi == AffineExpr(Fraction(1), (Fraction(2), Fraction(-1), Fraction(-1)))


def test_slot_determines_which_sorted_position_is_special():
    cs = chambers(4, 3, "g")
    # lambda_4 = 0.2 ranks second among (0.05, 0.3, 0.1, 0.2): slot 2
    pts = np.array([[0.05, 0.3, 0.1, 0.2]])
    counts, near = _chain_counts(cs.chains, pts)
    assert not near[0]
    by_slot = {ch.nplus1_slot: int(_chain_counts((ch,), pts)[0][0]) for ch in cs.chains}
    assert by_slot[2] == 1
    assert sum(by_slot.values()) == counts[0] == 1


@pytest.mark.parametrize(
    "d,N",
    [(2, 3), (3, 4), (3, 3), (4, 3), (4, 5), (5, 6), (5, 3), (6, 3), (5, 5)],
)
def test_chambers_agree_with_defining_inequalities(d, N):
    """10^5 box samples: away from boundaries, a point lies in the class
    region iff exactly one chamber (after sorting) contains it."""
    rng = np.random.default_rng(123)
    n = d + 1 if N == d + 1 else N + 1
    lo = -1.0 / (d - 1)
    pts = lo + (1.0 - lo) * rng.random((100_000, n))
    for tag in ("cp", "g", "eb"):
        cs = region_for(d, N, tag)
        counts, near = _chain_counts(cs.chains, pts)
        mask = _class_mask(pts, d, N, tag)
        ok = ~near
        assert np.array_equal(counts[ok] >= 1, mask[ok])
        assert counts[ok].max(initial=0) <= 1  # chambers are disjoint



# Dyadic rows on the facets of each class, and just past them, so that every
# sum below is exact. At d = 3 (lo = -1/2) every coordinate has weight 1.
_FACET_ROWS_D3 = [
    (0.25, 0.25, 0.25, 0.25),  # s = 1
    (0.25, 0.25, 0.25, 0.375),  # s = 9/8
    (0.0, 0.5, 0.25, 0.25),  # low = 0, s = 1
    (-0.125, 0.25, 0.25, 0.25),  # s = 1 + d*low = 5/8
    (-0.125, 0.25, 0.25, 0.375),  # s = 3/4 > 1 + d*low
    (-0.5, 0.0, 0.0, 0.0),  # a coordinate at lo, s = -1/(d-1) = 1 + d*low
    (-0.25, -0.25, 0.0, 0.0),  # s = -1/(d-1)
    (-0.25, -0.25, -0.125, 0.0),  # s = -5/8
    (1.0, 0.0, 0.0, 0.0),  # a coordinate at 1, s = 1, low = 0
    (1.0, -0.5, 1.0, -0.5),  # a corner of the box
    (-0.625, 0.0, 0.0, 0.0),  # past lo
    (1.125, 0.0, 0.0, 0.0),  # past 1
]
# d = 5, N = 3 (lo = -1/4): the last coordinate is the left-out one, weight 3.
_FACET_ROWS_D5_N3 = [
    (0.25, 0.25, 0.5, 0.0),  # s = 1, low = 0
    (0.25, 0.0, 0.0, 0.25),  # s = 1 through the left-out coordinate
    (0.25, 0.0, 0.125, 0.25),  # s = 9/8
    (-0.0625, 0.25, 0.3125, 0.0625),  # s = 1 + d*low = 11/16
    (-0.0625, 0.25, 0.375, 0.0625),  # s = 3/4 > 1 + d*low
    (-0.25, 0.0, 0.0, 0.0),  # a coordinate at lo, s = -1/(d-1) = 1 + d*low
    (-0.125, -0.125, 0.0, 0.0),  # s = -1/(d-1)
    (-0.125, -0.125, -0.125, 0.0),  # s = -3/8
    (0.0, 0.0, 0.0, -0.125),  # s = -3/8 through the left-out coordinate
    (1.0, 0.0, 0.0, 0.0),  # a coordinate at 1
    (1.0, -0.25, 1.0, -0.25),  # a corner of the box
    (0.0, 0.0, 0.0, 1.125),  # past 1
    (-0.3125, 0.0, 0.0, 0.0),  # past lo
]


def _class_by_rows(row, d, N, tag):
    """The defining inequalities of each class, written out for one row."""
    w = (1,) * (d + 1) if N == d + 1 else (1,) * N + (d + 1 - N,)
    s = sum(wi * x for wi, x in zip(w, row))
    low = min(row)
    if tag == "p":
        return all(-1 / (d - 1) <= x <= 1 for x in row)
    if tag == "cp":
        return -1 / (d - 1) <= s <= 1 + d * low
    if tag == "g":
        return low >= 0 and s <= 1 + d * low
    return low >= 0 and s <= 1


@pytest.mark.parametrize(
    "d,N,rows", [(3, 4, _FACET_ROWS_D3), (3, 3, _FACET_ROWS_D3), (5, 3, _FACET_ROWS_D5_N3)]
)
@pytest.mark.parametrize("tag", ["p", "cp", "g", "eb"])
def test_class_mask_on_facets(d, N, rows, tag):
    """Rows exactly on each facet count as inside (the inequalities are
    closed) and rows just past one count as outside."""
    expected = [_class_by_rows(row, d, N, tag) for row in rows]
    assert True in expected and False in expected
    assert _class_mask(np.array(rows), d, N, tag).tolist() == expected


@pytest.mark.parametrize("n", range(3, 14))
def test_row_sum_matches_numpy_bitwise(n):
    """The column-wise sum inside _class_mask keeps numpy's row-sum order,
    so the mask compares the same floats as pts.sum(axis=1) would."""
    pts = np.random.default_rng(n).random((4096, n)) * 1.5 - 0.5
    assert np.array_equal(_row_sum(pts.T), pts.sum(axis=1))

def _banned_imports(nodes, package_banned, outside_banned=frozenset({"numpy"})):
    """The names among ``nodes`` that import one of ``outside_banned`` (numpy
    by default), or one of the package's own modules in ``package_banned``."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names, banned = [alias.name for alias in node.names], outside_banned
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
            banned = package_banned if node.level else outside_banned
        else:
            continue
        found |= banned & {name.split(".")[0] for name in names}
    return found


def _module_tree(module):
    return ast.parse(Path(pauli_volumes.__file__).with_name(f"{module}.py").read_text())


@pytest.mark.parametrize("module", ["regions", "geometry", "rationals", "channel"])
def test_exact_modules_do_not_import_numpy(module):
    """Chains, surds, rationals and channel predicates are exact data: no float
    library in them, and no import of the package modules that load one."""
    found = _banned_imports(ast.walk(_module_tree(module)), {"mub", "volume"})
    assert not found, f"{module}.py imports {sorted(found)}, which loads numpy"


def _import_time_nodes(tree):
    """Every node that runs when the module is imported: all but function bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            todo.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", ["volume", "cli"])
def test_float_routes_import_numpy_only_when_called(module):
    """volume.py (for mc_volume) and cli.py (for mub-verify) reach numpy, but
    only from inside the functions that use it."""
    found = _banned_imports(_import_time_nodes(_module_tree(module)), {"mub"})
    assert not found, f"{module}.py imports {sorted(found)} at import time"


def test_no_module_imports_dataclasses():
    """dataclasses loads inspect, ast, dis and tokenize, about 10 ms of every
    process start; the value classes are NamedTuples and slotted classes."""
    for path in sorted(Path(pauli_volumes.__file__).parent.glob("*.py")):
        found = _banned_imports(ast.walk(ast.parse(path.read_text())), set(), {"dataclasses"})
        assert not found, f"{path.name} imports dataclasses"


def test_no_module_reads_the_environment():
    """The package has no settings: no module reads os.environ or os.getenv."""
    env_names = {"environ", "environb", "getenv", "getenvb"}
    for path in sorted(Path(pauli_volumes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                found = node.attr in env_names and getattr(node.value, "id", None) == "os"
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found = bool(env_names & {alias.name for alias in node.names})
            else:
                continue
            assert not found, f"{path.name}:{node.lineno} reads the environment"


def test_package_root_exports_what_callers_import():
    """The README's library example and the benchmark harness import these
    six names from the root; every other name comes from its submodule."""
    assert sorted(pauli_volumes.__all__) == sorted([
        "ChannelSpec", "check_conjectures", "class_volume", "is_cp", "mc_volume",
        "supported_n_values", "__version__",
    ])


_EXACT_ARGVS = [
    ["classify", "--d", "3", "--lambdas=1/2,0,-1/4,0"],
    ["volume", "--d", "3", "--class", "cp"],
    ["ratios", "--d", "2..4"],
    ["check-conjectures", "--d", "2..4"],
    ["dump-regions", "--d", "3", "--class", "g"],
    ["--help"],
]

# prints, after the imports and after each call, its exit code and which of
# the start-up-costly modules are loaded
_PROBE = """
import contextlib, io, json, sys
import pauli_volumes
from pauli_volumes import cli

def loaded():
    watched = ("numpy", "pauli_volumes.mub", "dataclasses", "inspect", "csv")
    return [m for m in watched if m in sys.modules]

print(json.dumps([None, loaded()]))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(json.dumps([code, loaded()]))
"""


def test_exact_subcommands_leave_numpy_unloaded():
    """A fresh process that imports the package and runs every exact JSON
    subcommand never loads numpy, mub, dataclasses, inspect or csv. The CSV
    call after them loads csv alone, and the mc call at the end loads numpy,
    which shows the probe can see them."""
    src = Path(pauli_volumes.__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    csv_call = ["ratios", "--d", "2", "--format", "csv"]
    argvs = _EXACT_ARGVS + [csv_call, ["mc", "--d", "3", "--class", "eb", "--samples", "10000"]]
    out = subprocess.run(
        [sys.executable, "-B", "-c", _PROBE, json.dumps(argvs)], env=env,
        capture_output=True, text=True, check=True,
    ).stdout
    steps = [json.loads(line) for line in out.splitlines()]
    assert steps[: len(_EXACT_ARGVS) + 1] == [[None, []]] + [[0, []]] * len(_EXACT_ARGVS)
    assert steps[-2] == [0, ["csv"]]
    assert steps[-1][0] == 0 and "numpy" in steps[-1][1]
