import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divot import (
    DagOrientation,
    DegenerateDataError,
    InsufficientDataError,
    SamplePair,
    ScoreConfig,
    ShapeError,
    Skeleton,
    SkeletonParseError,
    SkeletonTooLargeError,
    load_skeleton,
    multivariate_measure,
    orient_skeleton,
    score_direction,
    variable_term,
)
import divot.multivar
from divot.multivar import (
    _is_acyclic_edges,
    _parent_batches,
    _score_families,
    _standardized,
    variable_seed,
)
from divot.pairdata import k_nearest_rows, normalize


def zscore(col):
    return (col - col.mean()) / col.std(ddof=1)


def chain_data(seed, n=800):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    y = x + rng.random(n)
    z = y + rng.random(n)
    return np.column_stack([zscore(x), zscore(y), zscore(z)])


# ------------------------------------------------------------------ skeletons


def test_skeleton_validation():
    with pytest.raises(ValueError):
        Skeleton(3, ((0, 0),))
    with pytest.raises(ValueError):
        Skeleton(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Skeleton(2, ((0, 5),))
    edges = Skeleton(3, ((2, 1), (1, 0))).edges
    assert edges == ((0, 1), (1, 2))


def test_load_skeleton(tmp_path):
    p = tmp_path / "skel.txt"
    p.write_text("# chain\n0 1\n1 2\n")
    skel = load_skeleton(str(p), m=3)
    assert skel.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("text, line_no", [
    ("0 1\n2\n", 2),
    ("# header\n0 1\n1 two\n", 3),
    ("0 1.5\n", 1),
    ("1 1\n", 1),
    ("0 1\n0 9\n", 2),
    ("0 1\n1 0\n", 2),
])
def test_load_skeleton_malformed_line_reports_location(tmp_path, text, line_no):
    p = tmp_path / "skel.txt"
    p.write_text(text)
    with pytest.raises(SkeletonParseError) as err:
        load_skeleton(str(p), m=3)
    assert err.value.line_no == line_no
    assert f"{p}:{line_no}:" in str(err.value)


def test_orientation_rejects_cycles():
    with pytest.raises(ValueError):
        DagOrientation(3, ((0, 1), (1, 2), (2, 0)))


def test_orientation_parent_sets():
    dag = DagOrientation(3, ((0, 2), (1, 2)))
    assert dag.parents(2) == (0, 1)
    assert dag.parents(0) == ()


# ------------------------------------------------------------------- scoring


def test_two_variable_reduction_matches_bivariate_raw():
    # a pair direction is a one-parent family on normalized data
    data = chain_data(0)[:, :2]
    seed = 7
    child = variable_term(data, 1, (0,), source="uniform", seed=seed)
    pairs = normalize(SamplePair(data[:, 0], data[:, 1]))
    bivariate = score_direction(pairs, "x->y", ScoreConfig(source="uniform"),
                                seed=variable_seed(seed, 1))
    assert child == bivariate.measure.raw


def test_disconnected_skeleton_is_orientation_free():
    data = chain_data(1)
    dag = DagOrientation(3, ())
    total = multivariate_measure(data, dag, seed=3)
    parts = [variable_term(data, i, (), seed=3) for i in range(3)]
    assert total == pytest.approx(sum(parts), abs=1e-15)
    res = orient_skeleton(data, Skeleton(3, ()), seed=3)
    assert res.dag.edges == ()
    assert len(res.ranking) == 1


def test_three_cycle_only_acyclic_orientations_scored():
    data = chain_data(2)
    res = orient_skeleton(data, Skeleton(3, ((0, 1), (1, 2), (0, 2))), seed=1)
    assert len(res.ranking) == 6  # 8 total assignments minus the 2 cyclic ones


def test_score_decomposes_per_variable():
    data = chain_data(3)
    dag = DagOrientation(3, ((0, 1), (1, 2)))
    total = multivariate_measure(data, dag, seed=5)
    parts = [
        variable_term(data, 0, (), seed=5),
        variable_term(data, 1, (0,), seed=5),
        variable_term(data, 2, (1,), seed=5),
    ]
    assert total == pytest.approx(sum(parts), abs=1e-15)


def test_chain_orientation_recovered():
    hits = 0
    for trial in range(5):
        res = orient_skeleton(chain_data(100 + trial, n=1000),
                              Skeleton(3, ((0, 1), (1, 2))), seed=trial)
        hits += res.dag.edges == ((0, 1), (1, 2))
    assert hits >= 4


def test_collider_orientation_recovered():
    hits = 0
    for trial in range(5):
        rng = np.random.default_rng(200 + trial)
        n = 1000
        x = rng.uniform(-1, 1, n)
        y = rng.uniform(-1, 1, n)
        z = x + y + rng.random(n)
        data = np.column_stack([zscore(x), zscore(y), zscore(z)])
        res = orient_skeleton(data, Skeleton(3, ((0, 2), (1, 2))), seed=trial)
        hits += res.dag.edges == ((0, 2), (1, 2))
    assert hits >= 4


def test_relabeling_equivariance_on_clear_data():
    data = chain_data(42, n=1000)
    res = orient_skeleton(data, Skeleton(3, ((0, 1), (1, 2))), seed=0)
    # relabel variables (0,1,2) -> (2,0,1): column j of the new data is old pi(j)
    perm = {0: 1, 1: 2, 2: 0}  # new index -> old index
    permuted = data[:, [perm[j] for j in range(3)]]
    res_p = orient_skeleton(permuted, Skeleton(3, ((0, 1), (0, 2))), seed=0)
    inverse = {old: new for new, old in perm.items()}
    mapped = tuple(sorted((inverse[u], inverse[v]) for u, v in res.dag.edges))
    assert tuple(sorted(res_p.dag.edges)) == mapped


def test_single_edge_skeleton_agrees_with_bivariate_decision():
    from divot import divot, SamplePair, preprocess
    from divot.synth import GeneratorSpec, generate

    pairs = preprocess(generate(GeneratorSpec(mechanism="linear", n=800, seed=31)),
                       max_n=800, seed=0)
    verdict = divot(pairs, ScoreConfig(source="uniform"), seed=0)
    data = np.column_stack([zscore(pairs.xs), zscore(pairs.ys)])
    res = orient_skeleton(data, Skeleton(2, ((0, 1),)), seed=0)
    expected = ((0, 1),) if verdict.decision == "x->y" else ((1, 0),)
    assert res.dag.edges == expected


def test_degenerate_batches_error_names_variable():
    from divot import InsufficientDataError

    data = chain_data(9, n=100)
    with pytest.raises(InsufficientDataError, match="variable 1"):
        variable_term(data, 1, (0,), batch_frac=0.001, seed=0)


@pytest.mark.parametrize("m, edges, first", [
    (3, ((0, 1), (1, 2)), 1),
    (3, ((0, 2), (1, 2)), 2),  # 0 and 1 have neighbours too, but are roots at first
    (3, ((0, 1), (0, 2), (1, 2)), 1),
    (4, ((0, 3), (2, 3)), 3),
])
def test_unbatchable_orientation_names_the_variable_the_enumeration_reaches_first(
        m, edges, first):
    from divot import InsufficientDataError

    # the first orientation points every edge (u, v), u < v, at v
    data = np.column_stack([chain_data(9, n=100), chain_data(10, n=100)])[:, :m]
    with pytest.raises(InsufficientDataError, match=f"^variable {first}: "):
        orient_skeleton(data, Skeleton(m, edges), batch_frac=0.001, seed=0)


def test_constant_parent_column_named_by_data_column():
    data = chain_data(4, n=100)
    data[:, 2] = 1.0
    with pytest.raises(DegenerateDataError, match="^data column 2 is constant$"):
        variable_term(data, 0, (1, 2), seed=0)
    with pytest.raises(DegenerateDataError, match="^data column 2 is constant$"):
        orient_skeleton(data, Skeleton(3, ((0, 2), (1, 2))), seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cell_named_by_data_column_and_row(bad):
    data = chain_data(4, n=100)
    data[7, 1] = bad
    data[9, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateDataError,
                           match=f"^data column 1 has non-finite value {bad} at row 7$"):
            orient_skeleton(data, Skeleton(3, ((0, 1), (1, 2))), seed=0)


@pytest.mark.parametrize("family", [(1, ()), (1, (0,)), (0, (1,)), (2, (0, 1))])
def test_standalone_family_term_names_a_non_finite_cell(family):
    data = chain_data(4, n=100)
    data[5, 1] = np.nan
    i, parents = family
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateDataError,
                           match="^data column 1 has non-finite value nan at row 5$"):
            variable_term(data, i, parents, seed=0)
        dag = DagOrientation(3, ((0, 1), (1, 2)))
        with pytest.raises(DegenerateDataError,
                           match="^data column 1 has non-finite value nan at row 5$"):
            multivariate_measure(data, dag, seed=0)


def test_standalone_family_term_rejects_a_constant_child():
    data = chain_data(4, n=100)
    data[:, 1] = 2.0
    for parents in ((), (0,)):
        with pytest.raises(DegenerateDataError, match="^data column 1 is constant$"):
            variable_term(data, 1, parents, seed=0)


@pytest.mark.parametrize("i, parents", [
    (0, (-1,)),  # a negative index would silently pick the last column
    (-1, (0,)),
    (1, (1,)),  # its own parent
    (0, (1, 1)),  # a repeated parent
    (0, (2, 1, 2)),
    (3, ()),  # past the last column
    (0, (1, 3)),
])
def test_invalid_family_names_the_variable_and_its_parents(i, parents):
    data = chain_data(3, n=60)
    message = f"^variable {re.escape(str(i))} with parents {re.escape(str(parents))}: indices"
    with pytest.raises(ValueError, match=message):
        variable_term(data, i, parents, seed=0)
    memo = {}
    with pytest.raises(ValueError, match=message):
        variable_term(_standardized(data, None), i, parents, seed=0, memo=memo)
    assert memo == {}


@pytest.mark.parametrize("edges", [((0, 1), (1, 2)), ((0, 2), (1, 2))])
def test_position_count_below_one_rejected(edges):
    # the second skeleton's first orientation gives variable 2 two parents
    with pytest.raises(ValueError, match="max_positions must be >= 1"):
        orient_skeleton(chain_data(3, n=100), Skeleton(3, edges), max_positions=0)


def test_negative_seed_is_named():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        orient_skeleton(chain_data(3, n=100), Skeleton(3, ((0, 1), (1, 2))), seed=-1)


@pytest.mark.parametrize("m, edges", [(3, ((0, 1), (1, 2))), (5, ((0, 1), (1, 4)))])
def test_skeleton_size_mismatch_rejected_before_scoring(m, edges):
    data = np.column_stack([chain_data(3, n=100), chain_data(4, n=100)[:, 0]])
    scored = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divot.multivar, "_score_families", lambda *args: scored.append(args))
        with pytest.raises(ValueError,
                           match=f"^skeleton is over {m} variables, data has 4 columns$"):
            orient_skeleton(data, Skeleton(m, edges), seed=0)
    assert scored == []


@pytest.mark.parametrize("shape, error, message", [
    ((6,), ShapeError, r"^data must be a 2-d \(rows, variables\) array, got shape \(6,\)$"),
    ((6, 4, 2), ShapeError,
     r"^data must be a 2-d \(rows, variables\) array, got shape \(6, 4, 2\)$"),
    ((0, 3), InsufficientDataError, r"^data needs at least 2 rows, got shape \(0, 3\)$"),
    ((1, 3), InsufficientDataError, r"^data needs at least 2 rows, got shape \(1, 3\)$"),
], ids=["1-d", "3-d", "0-rows", "1-row"])
@pytest.mark.parametrize("call", ["orient_skeleton", "variable_term", "multivariate_measure"])
def test_data_not_rows_by_variables_is_named_by_its_shape(shape, error, message, call):
    # over 4 variables: the shape is checked before the variable count
    data = np.arange(float(np.prod(shape))).reshape(shape)
    edges = ((0, 1), (1, 2), (2, 3))
    with pytest.raises(error, match=message):
        if call == "orient_skeleton":
            orient_skeleton(data, Skeleton(4, edges))
        elif call == "variable_term":
            variable_term(data, 1, (0,))
        else:
            multivariate_measure(data, DagOrientation(4, edges))


def test_multivariate_ranking_sorted_and_ties_lexicographic():
    data = chain_data(5)
    res = orient_skeleton(data, Skeleton(3, ((0, 1), (1, 2))), seed=2)
    scores = [s for _, s in res.ranking]
    assert scores == sorted(scores)


def test_enumeration_limit():
    m = 14
    edges = tuple((i, i + 1) for i in range(13))
    data = np.random.default_rng(0).normal(size=(50, m))
    with pytest.raises(SkeletonTooLargeError):
        orient_skeleton(data, Skeleton(m, edges), seed=0)


@pytest.mark.parametrize("batch_frac", [2.0, 0.0, -0.1, np.nan])
def test_batch_fraction_outside_unit_interval_rejected(batch_frac):
    data = chain_data(6, n=100)
    with pytest.raises(ValueError, match=rf"^batch_frac must be in \(0, 1\], got {batch_frac}$"):
        orient_skeleton(data, Skeleton(3, ((0, 1), (1, 2))), batch_frac=batch_frac)
    with pytest.raises(ValueError, match="^batch_frac must be in"):
        multivariate_measure(data, DagOrientation(3, ((0, 1), (1, 2))), batch_frac=batch_frac)


def test_orientation_is_unit_free():
    # criterion 10's chain, left unscaled; then two columns in other units
    for trial in range(6):
        rng = np.random.default_rng(100 + trial)
        x = rng.uniform(-1, 1, 1000)
        y = x + rng.random(1000)
        z = y + rng.random(1000)
        data = np.column_stack([x, y, z])
        rescaled = np.column_stack([x, 10.0 * y + 3.0, 0.01 * z - 7.0])
        skeleton = Skeleton(3, ((0, 1), (1, 2)))
        res = orient_skeleton(data, skeleton, seed=trial)
        res_r = orient_skeleton(rescaled, skeleton, seed=trial)
        assert res_r.dag == res.dag
        assert [f for f, _ in res_r.ranking] == [f for f, _ in res.ranking]
        for (_, a), (_, b) in zip(res.ranking, res_r.ranking):
            assert b == pytest.approx(a, rel=1e-9)


# ------------------------------------------------------------- family memo


def orient_oracle(data, skeleton, seed):
    """Every acyclic orientation scored by multivariate_measure with no memo."""
    scored = []
    for flags in itertools.product((0, 1), repeat=len(skeleton.edges)):
        directed = tuple((v, u) if f else (u, v) for (u, v), f in zip(skeleton.edges, flags))
        if _is_acyclic_edges(skeleton.m, directed):
            dag = DagOrientation(skeleton.m, directed)
            scored.append((flags, multivariate_measure(data, dag, seed=seed), dag))
    scored.sort(key=lambda t: (t[1], t[0]))
    return scored


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 4).flatmap(lambda m: st.tuples(
        st.just(m),
        st.lists(st.sampled_from(list(itertools.combinations(range(m), 2))),
                 unique=True, max_size=5),
    )),
    st.integers(0, 2**31 - 1),
    st.integers(30, 80),
)
def test_memoised_orientation_matches_unmemoised_oracle(graph, seed, n):
    m, edges = graph
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, m))
    for u, v in edges:
        data[:, v] += np.sin(2.0 * data[:, u])
    skeleton = Skeleton(m, tuple(edges))

    calls, computed = [], []  # (variable, parents) of each call, of each computation
    public, scorer = divot.multivar.variable_term, divot.multivar._score_families

    def counted_public(data, i, parents, *args, **kwargs):
        calls.append((i, parents))
        return public(data, i, parents, *args, **kwargs)

    def counted_scorer(z, families, *args):
        computed.extend(families)
        return scorer(z, families, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divot.multivar, "variable_term", counted_public)
        mp.setattr(divot.multivar, "_score_families", counted_scorer)
        res = orient_skeleton(data, skeleton, seed=seed)
        memo_calls, memo_computed = len(calls), len(computed)
        calls.clear()
        computed.clear()
        oracle = orient_oracle(data, skeleton, seed)

    assert res.dag == oracle[0][2]
    assert res.score == oracle[0][1]
    assert res.ranking == tuple((flags, score) for flags, score, _ in oracle)
    assert memo_calls == len(calls) == m * len(oracle)
    assert memo_computed == len(set(calls))  # one computation per distinct family
    assert len(computed) == len(calls)


def neighbour_families(m, edges):
    """Each variable with each subset of its skeleton neighbours."""
    nbrs = [sorted({u for e in edges for u in e if i in e and u != i}) for i in range(m)]
    return [(i, parents) for i in range(m) for r in range(len(nbrs[i]) + 1)
            for parents in itertools.combinations(nbrs[i], r)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5).flatmap(lambda m: st.tuples(
        st.just(m),
        st.lists(st.sampled_from(list(itertools.combinations(range(m), 2))),
                 unique=True, max_size=6),
    )),
    st.integers(0, 2**31 - 1),
    st.integers(12, 60),
    st.sampled_from([None, 1, 0]),  # decimals kept: repeated rows dedupe anchors
    st.integers(1, 6),
    st.sampled_from(["normal", "uniform", "beta", "laplace"]),
)
def test_stacked_family_terms_match_single_family_terms(graph, seed, n, decimals,
                                                        max_positions, source):
    m, edges = graph
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, m))
    for u, v in edges:
        data[:, v] += np.sin(2.0 * data[:, u])
    if decimals is not None:
        data = np.round(data, decimals)
    assume(all(np.ptp(data[:, j]) > 0 for j in range(m)))
    families = neighbour_families(m, edges)
    sizes = []  # the elements of each stacked workspace
    flushes, drawn = [], []  # the children of each flush, the seed of each draw
    build, score_stacks = divot.multivar.build_workspace, divot.multivar._score_stacks
    draw = divot.multivar.draw_source_batches

    def recorded(source, anchors, ys, *args, **kwargs):
        sizes.append(ys.size)
        return build(source, anchors, ys, *args, **kwargs)

    def recorded_stacks(stacks, *args):
        flushes.append({i for blocks in stacks.values() for (i, _), _ in blocks})
        return score_stacks(stacks, *args)

    def recorded_draw(source, sizes, seed):
        drawn.append(seed)
        return draw(source, sizes, seed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divot.multivar, "build_workspace", recorded)
        mp.setattr(divot.multivar, "_score_stacks", recorded_stacks)
        mp.setattr(divot.multivar, "draw_source_batches", recorded_draw)
        terms = _score_families(_standardized(data, None), families, source, None,
                                max_positions, seed)
    assert max(sizes) <= max_positions * n
    # one stream per child per flush
    assert len(drawn) == sum(map(len, flushes))
    for i, parents in families:
        alone = variable_term(data, i, parents, source, max_positions=max_positions,
                              seed=seed)
        assert terms[(i, parents)] == alone, (i, parents)


def test_one_source_draw_per_child_on_a_chain():
    # 6 variables, 20 families in stacks of three shapes, one flush: each
    # child's stream is drawn once, for all its families
    rng = np.random.default_rng(3)
    data = np.empty((300, 6))
    data[:, 0] = rng.uniform(-1, 1, 300)
    for j in range(5):
        data[:, j + 1] = np.sin(2.0 * data[:, j]) + 0.5 * rng.random(300)
    drawn = []
    draw = divot.multivar.draw_source_batches

    def recorded_draw(source, sizes, seed):
        drawn.append(seed)
        return draw(source, sizes, seed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divot.multivar, "draw_source_batches", recorded_draw)
        orient_skeleton(data, Skeleton(6, tuple((j, j + 1) for j in range(5))), seed=7)
    assert sorted(drawn) == sorted(variable_seed(7, i) for i in range(6))


def test_stack_bound_splits_one_shape_into_several_workspaces():
    # 8 roots of n values each against a bound of 3n: stacks of 3, 3 and 2
    data = np.random.default_rng(0).normal(size=(40, 8))
    families = [(i, ()) for i in range(8)]
    blocks = []
    build = divot.multivar.build_workspace

    def recorded(*args, **kwargs):
        ws = build(*args, **kwargs)
        blocks.append(ws.blocks)
        return ws

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divot.multivar, "build_workspace", recorded)
        terms = _score_families(_standardized(data, None), families, "uniform", None, 3, 5)
    assert blocks == [3, 3, 2]
    assert [terms[f] for f in families] == [
        variable_term(data, i, (), max_positions=3, seed=5) for i in range(8)]


# ------------------------------------------------------------ parent batches


def parent_batches_oracle(z, max_positions, k):
    """The multi-parent batching as first written: anchors from np.unique(axis=0)
    of the lexsorted rows, distances from the squared gaps of a
    (positions, n, d) stack added in column order, and a stable argsort of
    each anchor's distances."""
    n, d = z.shape
    order = np.lexsort(tuple(z[:, j] for j in reversed(range(d))))
    _, uniq_idx = np.unique(z[order], axis=0, return_index=True)
    anchor_rows = order[np.sort(uniq_idx)]
    if len(anchor_rows) > max_positions:
        pick = np.unique(np.round(np.linspace(0, len(anchor_rows) - 1, max_positions)).astype(int))
        anchor_rows = anchor_rows[pick]
    gaps = (z[None, :, :] - z[anchor_rows][:, None, :]) ** 2
    dist = np.zeros((len(anchor_rows), n))
    for j in range(d):
        dist += gaps[:, :, j]
    return np.sort(np.argsort(np.sqrt(dist), kind="stable", axis=1)[:, :min(k, n)], axis=1)


@st.composite
def parent_matrices(draw):
    """2 to 12 parent columns with the rows optionally resampled, so that whole
    rows repeat. Each column is on an integer grid (rows tie) or of rounded
    floats; or every column permutes one zero-sum integer column, so that
    the z-scores share values and a row's distance sums the same squares as
    its permutations do, in another order: whether they tie then depends on
    the summation order."""
    d = draw(st.integers(2, 12))
    n = draw(st.integers(3, 40))
    if draw(st.booleans()):
        half = draw(st.lists(st.integers(-2, 2).map(float), min_size=n // 2, max_size=n // 2))
        base = half + [-v for v in half] + [0.0] * (n % 2)
        cols = [draw(st.permutations(base)) for _ in range(d)]
    else:
        cols = []
        for _ in range(d):
            values = draw(st.sampled_from([
                st.integers(-2, 2).map(float),
                st.floats(-5, 5).map(lambda v: round(v, 3)),
            ]))
            cols.append(draw(st.lists(values, min_size=n, max_size=n)))
    mat = np.array(cols).T
    if draw(st.booleans()):
        mat = mat[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    return mat


@settings(max_examples=300, deadline=None)
@given(parent_matrices(), st.integers(1, 50), st.floats(0.01, 1.0))
def test_multi_parent_batches_match_per_anchor_loop(parent_mat, max_positions, batch_frac):
    n, d = parent_mat.shape
    constant = [j for j in range(d) if parent_mat[:, j].min() == parent_mat[:, j].max()]
    if constant:
        with pytest.raises(DegenerateDataError, match=f"^data column {constant[0]} is constant$"):
            _standardized(parent_mat, batch_frac)
        return
    z = _standardized(parent_mat, batch_frac)
    k = math.ceil(batch_frac * n)
    batches = _parent_batches(z, tuple(range(d)), max_positions, k)
    assert batches.tolist() == parent_batches_oracle(z, max_positions, k).tolist()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 3).flatmap(lambda d: st.lists(
        st.lists(st.integers(-2, 2).map(float), min_size=d, max_size=d),  # integer grid: ties
        min_size=3, max_size=60)),
    st.integers(1, 20),
    st.integers(1, 60),
)
def test_multi_parent_pick_matches_full_argsort(rows, n_anchors, k):
    z = np.array(rows)
    k = min(k, len(z))
    anchors = z[np.linspace(0, len(z) - 1, min(n_anchors, len(z))).astype(int)]
    dist = np.sqrt(((z[None, :, :] - anchors[:, None, :]) ** 2).sum(axis=2))
    got = k_nearest_rows(dist, k)
    want = np.sort(np.argsort(dist, kind="stable")[:, :k])
    assert got.tolist() == want.tolist()
