import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from divot import (
    BatchSet,
    DegenerateDataError,
    GeneratorSpec,
    InsufficientDataError,
    PairParseError,
    SamplePair,
    default_batch_frac,
    generate,
    load_pairs,
    make_batches,
    normalize,
    preprocess,
    select_positions,
    subsample,
    trim_outliers,
)
from divot import pairdata
from divot.pairdata import (
    _nearest_rows,
    k_nearest_rows,
    nearest_batches,
    rows_per_batch,
    select_position_values,
)


# ------------------------------------------------------------------ loading


def test_load_two_columns(tmp_path):
    p = tmp_path / "pair.txt"
    p.write_text("1 2\n3 4\n")
    pairs = load_pairs(str(p))
    assert pairs.xs.tolist() == [1.0, 3.0]
    assert pairs.ys.tolist() == [2.0, 4.0]


def test_load_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "pair.txt"
    p.write_text("# meta\n\n1 2\n3 4\n")
    pairs = load_pairs(str(p))
    assert pairs.xs.tolist() == [1.0, 3.0]
    assert pairs.ys.tolist() == [2.0, 4.0]


def test_load_real_style_file_row_count(tmp_path):
    # oracle: count data lines independently of the parser
    rng = np.random.default_rng(0)
    lines = [f"{a:.6f}\t{b:.6f}" for a, b in rng.normal(size=(137, 2))]
    p = tmp_path / "pair0001.txt"
    p.write_text("\n".join(lines) + "\n")
    n_expected = sum(1 for ln in p.read_text().splitlines() if ln.strip())
    pairs = load_pairs(str(p))
    assert pairs.n == n_expected == 137


def test_load_column_selection(tmp_path):
    p = tmp_path / "pair.txt"
    p.write_text("1 2 9\n3 4 9\n")
    pairs = load_pairs(str(p), columns=(2, 0))
    assert pairs.xs.tolist() == [9.0, 9.0]
    assert pairs.ys.tolist() == [1.0, 3.0]


def test_load_malformed_field_reports_line(tmp_path):
    p = tmp_path / "pair.txt"
    p.write_text("1 2\nfoo 4\n")
    with pytest.raises(PairParseError) as err:
        load_pairs(str(p))
    assert err.value.line_no == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_load_non_finite_value_reports_line(tmp_path, value):
    p = tmp_path / "pair.txt"
    p.write_text(f"1 2\n3 4\n5 {value}\n6 7\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PairParseError) as err:
            load_pairs(str(p))
    assert err.value.line_no == 3
    assert str(p) in str(err.value)


def test_load_too_few_rows(tmp_path):
    p = tmp_path / "pair.txt"
    p.write_text("1 2\n")
    with pytest.raises(InsufficientDataError):
        load_pairs(str(p))


def _load_pairs_line_by_line(path, columns=(0, 1)):
    """The line loop load_pairs used before it parsed whole files, kept as its oracle."""
    xs, ys = [], []
    cx, cy = columns
    if cx < 0 or cy < 0:
        raise ValueError(f"columns must be non-negative field indices, got {cx} {cy}")
    need = max(cx, cy) + 1
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split()
            if len(fields) < max(2, need):
                raise PairParseError(
                    path, line_no, f"expected at least {max(2, need)} columns, got {len(fields)}"
                )
            try:
                x, y = float(fields[cx]), float(fields[cy])
            except ValueError as exc:
                raise PairParseError(path, line_no, f"non-numeric field: {exc}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise PairParseError(path, line_no, f"non-finite value: {x} {y}")
            xs.append(x)
            ys.append(y)
    if len(xs) < 2:
        raise InsufficientDataError(f"{path}: fewer than 2 data rows")
    return SamplePair(np.array(xs), np.array(ys))


_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_000", ".5", "-.5", "7.", "1e400", "-1e400", "1e-400", "inf", "-inf",
                     "nan", "NaN", "foo", "1,5", "0x10", "#", "#7"]),
)
_SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def _pair_file_lines(draw):
    """A line of a pair file: blank, a comment, or up to 4 fields, each with
    optional leading and trailing whitespace."""
    kind = draw(st.sampled_from(["fields", "fields", "fields", "blank", "comment"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", " \t "]))
    if kind == "comment":
        return draw(st.sampled_from(["", " ", "\t"])) + "# " + draw(_TOKENS)
    fields = draw(st.lists(_TOKENS, max_size=4))
    body = "".join(f + draw(_SEPARATORS) for f in fields[:-1]) + "".join(fields[-1:])
    return draw(st.sampled_from(["", " ", "\t"])) + body + draw(st.sampled_from(["", " ", "\t"]))


@settings(max_examples=500, deadline=None)
@given(lines=st.lists(_pair_file_lines(), max_size=12),
       newline=st.sampled_from(["\n", "\r\n"]), last_newline=st.booleans(),
       columns=st.tuples(st.integers(0, 2), st.integers(0, 2)))
@example(lines=["1_000 .5", "2 3"], newline="\n", last_newline=True, columns=(0, 1))
@example(lines=["1 2", "# c", "", "\t3\t1e400 x"], newline="\n", last_newline=False,
         columns=(0, 1))
@example(lines=["1 2 foo", "3 4 bar"], newline="\r\n", last_newline=True, columns=(1, 0))
@example(lines=["1 2", "3"], newline="\n", last_newline=True, columns=(0, 1))
def test_load_pairs_matches_the_line_by_line_parser(tmp_path_factory, lines, newline,
                                                     last_newline, columns):
    path = str(tmp_path_factory.mktemp("pairs") / "pair.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join(lines) + (newline if last_newline else ""))
    outcomes = []
    for parse in (load_pairs, _load_pairs_line_by_line):
        try:
            pairs = parse(path, columns)
        except (PairParseError, InsufficientDataError) as exc:
            outcomes.append((type(exc), getattr(exc, "line_no", None), str(exc)))
        else:
            outcomes.append((pairs.xs.tobytes(), pairs.ys.tobytes()))
    assert outcomes[0] == outcomes[1]


# ------------------------------------------------------------- preprocessing


def test_normalize_two_points_hand_value():
    # z-scores with the n-1 denominator: [1, 2] -> -/+ 1/sqrt(2)
    pre = normalize(SamplePair([1.0, 2.0], [1.0, 2.0]))
    assert np.allclose(pre.xs, [-0.70710678, 0.70710678])
    assert np.allclose(pre.ys, [-0.70710678, 0.70710678])


def test_normalize_moments():
    rng = np.random.default_rng(3)
    pre = normalize(SamplePair(rng.normal(5, 3, 400), rng.uniform(0, 9, 400)))
    for col in (pre.xs, pre.ys):
        assert abs(col.mean()) < 1e-9
        assert abs(col.std(ddof=1) - 1.0) < 1e-9


def test_trim_removes_extreme_row():
    xs = np.array([0.0] * 7 + [10.0])  # z of the outlier is 2.47
    ys = np.linspace(-1, 1, 8)
    pre = trim_outliers(normalize(SamplePair(xs, ys)))
    assert pre.n == 7
    assert np.all(np.abs(pre.xs) <= 2.0)
    assert np.all(np.abs(pre.ys) <= 2.0)


def test_preprocess_subsamples_deterministically():
    rng = np.random.default_rng(1)
    pairs = SamplePair(rng.normal(size=1000), rng.normal(size=1000))
    a = preprocess(pairs, max_n=500, seed=7)
    b = preprocess(pairs, max_n=500, seed=7)
    assert a.n == 500
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    c = preprocess(pairs, max_n=500, seed=8)
    assert not np.array_equal(a.xs, c.xs)


def test_subsample_preserves_row_order():
    pairs = SamplePair(np.arange(100.0), np.arange(100.0) * 2)
    sub = subsample(pairs, 20, seed=0)
    assert np.all(np.diff(sub.xs) > 0)


def test_zero_std_column_raises():
    with pytest.raises(DegenerateDataError):
        preprocess(SamplePair([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_reports_column_and_row(bad):
    # arrays handed to SamplePair directly skip load_pairs' check
    clean = [1.0, 2.0, 3.0, 4.0, 5.0]
    dirty = [1.0, bad, 3.0, bad, 5.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateDataError, match="column x .* at row 1$"):
            preprocess(SamplePair(dirty, clean))
        with pytest.raises(DegenerateDataError, match="column y .* at row 1$"):
            preprocess(SamplePair(clean, dirty))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_batches_names_the_first_non_finite_row_or_position(bad):
    xs = np.arange(8.0)
    xs[[2, 5]] = bad
    with pytest.raises(DegenerateDataError, match=r"^x row 2 is non-finite: "):
        make_batches(SamplePair(xs, np.arange(8.0)), np.array([1.0, 3.0]), 0.5)
    with pytest.raises(DegenerateDataError, match=r"^position 1 is non-finite: "):
        make_batches(SamplePair(np.arange(8.0), np.arange(8.0)),
                     np.array([1.0, bad, 3.0, bad]), 0.5)


def test_column_constant_after_trimming_raises():
    # 50 equal values and one outlier: trimming leaves x constant
    rng = np.random.default_rng(8)
    xs = np.append(np.zeros(50), 100.0)
    with pytest.raises(DegenerateDataError, match="column x"):
        preprocess(SamplePair(xs, rng.normal(size=51)))
    with pytest.raises(DegenerateDataError, match="column y"):
        preprocess(SamplePair(rng.normal(size=51), xs))


def test_overtight_trim_raises():
    rng = np.random.default_rng(2)
    pairs = SamplePair(rng.normal(size=50), rng.normal(size=50))
    with pytest.raises(InsufficientDataError):
        preprocess(pairs, k_std=0.01)


def test_preprocess_idempotent_on_clean_data():
    # uniform data standardize to |z| <= sqrt(3) < 2, so nothing trims
    rng = np.random.default_rng(4)
    pairs = SamplePair(rng.uniform(-1.5, 1.5, 300), rng.uniform(-1.5, 1.5, 300))
    once = preprocess(pairs, seed=0)
    twice = preprocess(once, seed=0)
    assert twice.n == once.n
    assert np.allclose(twice.xs, once.xs, atol=1e-9)
    assert np.allclose(twice.ys, once.ys, atol=1e-9)


# ----------------------------------------------------------------- positions


def test_positions_small_n_passthrough():
    pairs = SamplePair([3.0, 1.0, 2.0, 5.0, 4.0], [0.0] * 5)
    pos = select_positions(pairs, max_positions=50)
    assert pos.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_positions_grid_snaps_to_data_values():
    xs = np.arange(100.0)
    pos = select_position_values(xs, 50)
    assert len(pos) == 50
    assert set(pos).issubset(set(xs))
    gaps = np.diff(pos)
    assert gaps.min() >= 1.0 and abs(gaps.mean() - 2.0) < 0.1


def test_positions_deduplicate():
    pairs = SamplePair([1.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    assert select_positions(pairs).tolist() == [1.0, 2.0]


# ------------------------------------------------------------------- batches


def test_full_window_batch():
    pairs = SamplePair(np.arange(5.0), np.arange(5.0))
    batches = make_batches(pairs, np.array([2.0]), batch_frac=1.0)
    assert batches.batches[0].tolist() == [0, 1, 2, 3, 4]


def test_nearest_neighbour_batch_exhaustive():
    pairs = SamplePair(np.array([0.0, 1.0, 2.0, 3.0, 4.0]), np.zeros(5))
    batches = make_batches(pairs, np.array([2.0]), batch_frac=0.6)
    # ceil(3) nearest of x=2 are x in {1, 2, 3}
    assert sorted(pairs.xs[batches.batches[0]].tolist()) == [1.0, 2.0, 3.0]


def test_batch_frac_schedule():
    assert default_batch_frac(10) == 0.4
    assert default_batch_frac(25) == 0.2
    assert default_batch_frac(50) == 0.2
    assert default_batch_frac(100) == 0.15
    assert default_batch_frac(200) == 0.15
    assert default_batch_frac(500) == 0.05


@pytest.mark.parametrize("n", [3, 10, 11, 50, 51, 200, 201, 1000])
def test_no_batch_frac_batches_by_the_sample_size_schedule(n):
    rng = np.random.default_rng(n)
    pairs = SamplePair(np.round(rng.normal(size=n), 1), np.zeros(n))  # rounded: ties
    positions = select_positions(pairs)
    got = make_batches(pairs, positions, None)
    want = make_batches(pairs, positions, default_batch_frac(n))
    assert rows_per_batch(n, None) == math.ceil(default_batch_frac(n) * n)
    assert got.batches.tobytes() == want.batches.tobytes()
    assert got.positions.tobytes() == want.positions.tobytes()


def test_all_batches_dropped_raises():
    pairs = SamplePair(np.arange(10.0), np.zeros(10))
    with pytest.raises(InsufficientDataError):
        make_batches(pairs, np.array([5.0]), batch_frac=0.05)  # k = 1


def test_make_batches_without_positions_says_so():
    pairs = SamplePair(np.arange(10.0), np.zeros(10))
    with pytest.raises(InsufficientDataError, match="no positions"):
        make_batches(pairs, np.array([]), batch_frac=0.5)


@pytest.mark.parametrize("max_positions", [3, 50])
def test_positions_ascend_over_a_range_past_the_largest_float(max_positions):
    xs = np.array([-1e308, 1e308, 0.0, 1.0, 2.0, -5.0] * 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pos = select_position_values(xs, max_positions, np.argsort(xs, kind="stable"))
    assert pos[0] == -1e308 and len(pos) >= 2
    assert np.all(np.diff(pos) > 0)


@pytest.mark.parametrize("max_positions", [0, -3])
def test_position_count_below_one_raises(max_positions):
    with pytest.raises(ValueError, match="max_positions must be >= 1"):
        select_position_values(np.arange(100.0), max_positions)


def test_batch_frac_out_of_range():
    pairs = SamplePair(np.arange(10.0), np.zeros(10))
    with pytest.raises(ValueError):
        make_batches(pairs, np.array([5.0]), batch_frac=0.0)


def test_batchset_requires_min_size():
    with pytest.raises(InsufficientDataError):
        BatchSet(positions=[0.0], batches=[np.array([1])])


def test_batchset_matrix_form():
    batches = BatchSet(positions=[0.0, 1.0], batches=np.array([[0, 1, 2], [1, 2, 3]]))
    assert isinstance(batches.batches, np.ndarray)
    assert batches.batches.shape == (2, 3) and len(batches) == 2
    # equal-size sequences become the same matrix (mixed sizes raise
    # ShapeError, see test_mixed_batch_sizes_raise_shape_error)
    same = BatchSet(positions=[0.0, 1.0], batches=[[0, 1, 2], np.array([1, 2, 3])])
    assert same.batches.shape == (2, 3)
    assert np.array_equal(same.batches, batches.batches)
    with pytest.raises(InsufficientDataError):
        BatchSet(positions=[0.0, 1.0], batches=np.array([[0], [1]]))
    with pytest.raises(InsufficientDataError):
        BatchSet(positions=[0.0], batches=np.array([[0, 1], [1, 2]]))


def test_batch_membership_permutation_invariant():
    # needs tie-free |x - position| values, hence random rather than gridded x
    rng = np.random.default_rng(6)
    xs = rng.uniform(-3, 3, 40)
    ys = rng.normal(size=40)
    pairs = SamplePair(xs, ys)
    pos = select_positions(pairs, 10)
    base = make_batches(pairs, pos, 0.2)
    perm = rng.permutation(40)
    shuffled = SamplePair(xs[perm], ys[perm])
    other = make_batches(shuffled, pos, 0.2)
    for b1, b2 in zip(base.batches, other.batches):
        assert sorted(xs[b1].tolist()) == sorted(shuffled.xs[b2].tolist())


def test_batches_cover_nearest_neighbour_of_each_position():
    rng = np.random.default_rng(7)
    xs = rng.normal(size=60)
    pairs = SamplePair(xs, rng.normal(size=60))
    pos = select_positions(pairs, 15)
    batches = make_batches(pairs, pos, 0.1)
    for p, batch in zip(batches.positions, batches.batches):
        nearest = int(np.argmin(np.abs(xs - p)))
        assert nearest in batch.tolist()


def test_nearest_batches_tie_break_by_index():
    x = np.array([1.0, 3.5, 1.0, 5.0])  # indices 0 and 2 tie at distance 1 from 2.0
    (batch,) = nearest_batches(x, np.array([2.0]), 2)
    assert batch.tolist() == [0, 2]


def test_nearest_batches_edge_tie_outside_window():
    # ten rows tie at distance 1 left of 0; the two with the smallest
    # indices lie outside the 2k sorted rows nearest to the position
    x = np.array([-1.0] * 10 + [1.0])
    (batch,) = nearest_batches(x, np.array([0.0]), 2)
    assert batch.tolist() == [0, 1]


def nearest_batches_oracle(x, positions, k):
    """The per-position full stable argsort that nearest_batches replaced."""
    x = np.asarray(x, dtype=float)
    out = []
    for p in positions:
        order = np.argsort(np.abs(x - p), kind="stable")
        out.append(np.array(sorted(order[:k])))
    return tuple(out)


_values = st.one_of(
    st.integers(-4, 4).map(float),  # heavy ties and duplicates
    st.floats(-10, 10).map(lambda v: round(v, 1)),
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0]),  # equal values with different bits
    st.sampled_from([1e-17, 3e-89]),  # offsets that round away against 1
)


@st.composite
def batching_cases(draw):
    """Columns of mixed values or on an integer grid, in half the cases
    z-scored (ties at p - d and p + d, some off by an ulp) and in half a
    bootstrap resample (repeated rows); positions on, between and outside
    the data; k of 1, 2, n - 1 or any size up to n + 2."""
    grid = st.integers(0, draw(st.integers(1, 12))).map(float)
    base = np.array(draw(st.lists(st.one_of(_values, grid) if draw(st.booleans()) else grid,
                                  min_size=1, max_size=40)))
    sd = base.std(ddof=1) if len(base) > 1 else 0.0
    if draw(st.booleans()) and 0.0 < sd < math.inf:  # as `normalize` leaves a column
        base = (base - base.mean()) / sd
    x = base
    if draw(st.booleans()):  # a bootstrap resample of the rows
        x = x[draw(st.lists(st.integers(0, len(x) - 1), min_size=len(x), max_size=len(x)))]
    beyond = st.sampled_from([base.min() - 1.0, base.max() + 1.0, -1e7, 1e7])
    positions = draw(st.lists(st.one_of(st.sampled_from(base.tolist()), beyond, _values),
                              max_size=12))
    k = draw(st.one_of(st.sampled_from([1, 2, max(1, len(x) - 1)]), st.integers(1, len(x) + 2)))
    return x, np.array(positions, dtype=float), k


def _z_scored(values):
    x = np.array(values, dtype=float)
    return (x - x.mean()) / x.std(ddof=1)


@settings(max_examples=400, deadline=None)
@given(batching_cases())
@example((np.zeros(9), np.array([0.0, -1.0, 3.0]), 4))  # all-equal x
@example((np.arange(6.0), np.array([2.5, -9.0, 9.0]), 1))  # k = 1
@example((np.arange(6.0), np.array([2.0]), 6))  # k = n
@example((np.array([-1.0] * 10 + [1.0]), np.array([0.0]), 2))
@example((np.array([3e-89, 3e-89, 3e-89, 0.0, 0.0]), np.array([-1.0]), 1))  # rounded tie after
@example((np.array([3e-89, 0.0]), np.array([-1.0]), 1))  # both distances round to 1.0
@example((np.array([1e-17, 0.0, 1e-17, 0.0]), np.array([-1.0, 1.0]), 3))
@example((_z_scored([2, 1, 3, 2, 4]), _z_scored([2, 1, 3, 2, 4])[2:3], 2))  # a misplaced run
def test_nearest_batches_matches_argsort_oracle(case):
    x, positions, k = case
    got = nearest_batches(x, positions, k)
    want = nearest_batches_oracle(x, positions, k)
    assert [b.tolist() for b in got] == [b.tolist() for b in want]


@settings(max_examples=300, deadline=None)
@given(batching_cases(), st.floats(0.01, 1.0))
def test_make_batches_matrix_matches_per_position_batches(case, batch_frac):
    x, positions, _ = case
    assume(len(x) >= 2 and len(positions) >= 1)
    pairs = SamplePair(x, np.zeros(len(x)))
    k = math.ceil(batch_frac * pairs.n)
    if min(k, pairs.n) < 2:
        with pytest.raises(InsufficientDataError):
            make_batches(pairs, positions, batch_frac)
        return
    batches = make_batches(pairs, positions, batch_frac)
    assert isinstance(batches.batches, np.ndarray)
    assert batches.batches.shape == (len(positions), min(k, pairs.n))
    assert batches.positions.tolist() == positions.tolist()
    want = [_nearest_rows(x, p, k) for p in positions]
    assert [b.tolist() for b in batches.batches] == [b.tolist() for b in want]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda lines: st.integers(1, 30).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.one_of(st.integers(0, 3).map(float),  # heavy ties
                                        st.floats(0, 10, allow_nan=False)),
                              min_size=n, max_size=n),
                     min_size=lines, max_size=lines),
            st.integers(1, n))),
    ),
)
# every line holds exactly the tied rows it needs at its k-th distance
@example(([[0.0, 1.0, 1.0, 2.0], [3.0, 1.0, 2.0, 2.0]], 3))
# the second line has three rows tied at its k-th distance and needs one
@example(([[0.0, 1.0, 2.0, 3.0], [2.0, 2.0, 2.0, 1.0]], 2))
def test_k_nearest_rows_matches_stable_argsort(case):
    dist_lists, k = case
    dist = np.array(dist_lists)
    want = np.sort(np.argsort(dist, kind="stable", axis=1)[:, :k], axis=1)
    assert k_nearest_rows(dist, k).tolist() == want.tolist()
    # the partition run in a caller's spare buffer picks the same rows
    assert k_nearest_rows(dist, k, scratch=np.full(dist.shape, np.nan)).tolist() == want.tolist()


@settings(max_examples=300, deadline=None)
@given(batching_cases())
@example((np.array([0.0, -0.0, 1.0, -0.0]), np.array([0.0, -0.0, 0.5]), 2))
def test_nearest_batches_given_the_order_match_the_sorting_path(case):
    x, positions, k = case
    want = nearest_batches(x, positions, k)
    got = nearest_batches(x, positions, k, np.argsort(x, kind="stable"))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.fixture
def exact_selections(monkeypatch):
    """Counts the positions batched by the full-argsort fallback."""
    calls = []
    real = pairdata._nearest_rows

    def spy(x, p, k):
        calls.append(p)
        return real(x, p, k)

    monkeypatch.setattr(pairdata, "_nearest_rows", spy)
    return calls


@pytest.fixture
def run_reads(monkeypatch):
    """Counts the reads of the runs' ends: one a call, and one more for a
    call that moves a run rounding misplaced."""
    calls = []
    real = pairdata._run_ends

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(pairdata, "_run_ends", spy)
    return calls


@pytest.mark.parametrize("x, p, k, want", [
    # 2.0 is tied at the k-th distance and the run enters it from the left:
    # the run already holds its first row
    ([0.0, 2.0, 2.0, 2.0, -0.5], 0.0, 3, [0, 1, 4]),
    # -2.0 is tied and the run enters it from the right, at its last row
    # (2): the batch takes its first row (0) instead
    ([-2.0, -2.0, -2.0, 0.0, 0.5], 0.0, 3, [0, 3, 4]),
    # -1 and 1 tie at distance 1: the two lowest indices of both runs
    ([1.0, -1.0, 1.0, -1.0, 0.0], 0.0, 3, [0, 1, 4]),
])
def test_a_tie_at_the_kth_distance_resolves_from_the_stable_order(exact_selections, run_reads,
                                                                   x, p, k, want):
    x = np.array(x)
    (batch,) = nearest_batches(x, np.array([p]), k)
    assert batch.tolist() == want
    assert want == sorted(np.argsort(np.abs(x - p), kind="stable")[:k].tolist())
    assert len(run_reads) == 1  # the searched run is kept
    assert exact_selections == []


def test_a_run_misplaced_by_rounding_moves_without_an_exact_selection(exact_selections,
                                                                      run_reads):
    x = _z_scored([2, 1, 3, 2, 4])
    p = x[2]
    # 4 is nearer than 2 by one ulp, yet the midpoint of 2 and 4 rounds to p,
    # so the search puts the run on the side of 2
    assert abs(x[4] - p) < abs(x[0] - p) and x[0] / 2 + x[4] / 2 == p
    (batch,) = nearest_batches(x, np.array([p]), 2)
    assert batch.tolist() == [2, 4]
    assert len(run_reads) == 2  # the searched run, then the moved one
    assert exact_selections == []


def test_rounded_columns_move_misplaced_runs_without_an_exact_selection(exact_selections,
                                                                       run_reads):
    # z-scored integers 0..200 and a normal to 2 decimals, as in
    # scripts/bench_batching.py: some runs are misplaced by an ulp, and an
    # exact selection for each would cost more than the rest of the call
    rng = np.random.default_rng(20)
    for x in (rng.integers(0, 201, 1000).astype(float), np.round(rng.normal(size=1000), 2)):
        pairs = preprocess(SamplePair(x, rng.normal(size=1000)), max_n=1000)
        batches = make_batches(pairs, select_positions(pairs), default_batch_frac(pairs.n))
        want = nearest_batches_oracle(pairs.xs, batches.positions, batches.batches.shape[1])
        assert batches.batches.tolist() == [b.tolist() for b in want]
    assert len(run_reads) == 4  # both calls moved runs
    assert exact_selections == []


def test_values_rounding_to_one_distance_take_the_exact_selection(exact_selections):
    # 3e-89 and 0 both lie at distance 1.0 from -1: two tied values on one side
    (batch,) = nearest_batches(np.array([3e-89, 3e-89, 0.0, 0.0]), np.array([-1.0]), 1)
    assert batch.tolist() == [0]
    assert exact_selections == [-1.0]


def test_a_bootstrap_replicate_of_a_continuous_pair_takes_no_exact_selection(
        exact_selections):
    pairs = preprocess(generate(GeneratorSpec(mechanism="sine", n=1000, seed=4)), max_n=1000)
    rng = np.random.default_rng(0)
    for _ in range(3):
        counts = np.bincount(rng.integers(0, pairs.n, pairs.n), minlength=pairs.n)
        sample = pairs.resample(counts)
        for direction in (sample, sample.swapped()):
            make_batches(direction, select_positions(direction),
                         default_batch_frac(direction.n))
    assert exact_selections == []


# ------------------------------------------------------------- shared orders


@st.composite
def columns(draw, min_size=1):
    """A column of continuous, integer-grid or signed-zero values, and in half
    the cases a resample of it with repeated rows."""
    x = np.array(draw(st.lists(_values, min_size=min_size, max_size=60)))
    if draw(st.booleans()):
        x = x[draw(st.lists(st.integers(0, len(x) - 1), min_size=len(x), max_size=len(x)))]
    return x


def select_position_values_oracle(x, max_positions):
    """The np.unique path that the diff mask over sorted x replaced."""
    uniq = np.unique(x)
    if len(x) <= max_positions:
        return uniq
    lo, hi = uniq[0], uniq[-1]
    step = (hi - lo) / max_positions
    grid = lo + step * np.arange(max_positions)
    right = np.clip(np.searchsorted(uniq, grid, side="left"), 0, len(uniq) - 1)
    left = np.clip(right - 1, 0, len(uniq) - 1)
    pick_left = np.abs(grid - uniq[left]) <= np.abs(uniq[right] - grid)
    return np.unique(np.where(pick_left, uniq[left], uniq[right]))


@settings(max_examples=400, deadline=None)
@given(columns(), st.integers(1, 50))
@example(np.array([0.0, -0.0, 1.0, -0.0, 2.0]), 50)
@example(np.array([-0.0, 0.0] * 20 + [3.0]), 4)
def test_select_position_values_given_the_order_match_the_unique_path(x, max_positions):
    want = select_position_values_oracle(x, max_positions)
    assert select_position_values(x, max_positions).tobytes() == want.tobytes()
    got = select_position_values(x, max_positions, np.argsort(x, kind="stable"))
    assert got.tolist() == want.tolist()
    zeros = x[x == 0.0]
    if len(set(np.signbit(zeros).tolist())) == 2:
        # np.unique keeps whichever zero its unstable sort puts first; the
        # stable order keeps the first zero in row order
        want[want == 0.0] = zeros[0]
    assert got.tobytes() == want.tobytes()



@st.composite
def resamples(draw):
    """Two columns and how often each row is drawn (at least twice in all)."""
    x = draw(columns(min_size=2))
    y = np.array(draw(st.lists(_values, min_size=len(x), max_size=len(x))))
    counts = np.array(draw(st.lists(st.integers(0, 3), min_size=len(x), max_size=len(x))))
    assume(counts.sum() >= 2)
    return x, y, counts


@settings(max_examples=400, deadline=None)
@given(resamples())
@example((np.array([0.0, -0.0, 1.0, -0.0]), np.array([2.0, 2.0, -0.0, 0.0]),
          np.array([2, 1, 0, 3])))
def test_resample_orders_equal_the_stable_argsort(case):
    x, y, counts = case
    idx = np.repeat(np.arange(len(x)), counts)
    sample = SamplePair(x, y).resample(counts)
    assert sample.xs.tobytes() == x[idx].tobytes() and sample.ys.tobytes() == y[idx].tobytes()
    assert sample.by_x.tolist() == np.argsort(x[idx], kind="stable").tolist()
    assert sample.by_y.tolist() == np.argsort(y[idx], kind="stable").tolist()
    swapped = sample.swapped()
    assert swapped.by_x is sample.by_y and swapped.by_y is sample.by_x


def test_orders_are_keyword_only():
    # a third positional argument would otherwise pass silently as x's order
    with pytest.raises(TypeError):
        SamplePair(np.arange(3.0), np.arange(3.0), np.arange(3))


def test_resample_rows_are_the_sorted_draws():
    pairs = SamplePair(np.arange(5.0), 10.0 + np.arange(5.0))
    draws = np.array([3, 0, 3, 4, 1])
    sample = pairs.resample(np.bincount(draws, minlength=5))
    assert sample.xs.tolist() == np.sort(draws).astype(float).tolist()
    with pytest.raises(ValueError, match="one count per row"):
        pairs.resample(np.array([1, 1]))
