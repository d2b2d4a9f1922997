import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adastoc.rows import RowStreams, _stacked_dot, row_dot


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["random", "standard_normal"]),
    block=st.sampled_from([0, 1, 3, 256]),
    rows=st.integers(1, 4),
    takes=st.lists(st.integers(1, 5), max_size=40),
    keep_at=st.integers(0, 40),
)
def test_row_streams_give_each_row_its_own_sequence(kind, block, rows, takes, keep_at):
    # every row sees exactly what scalar calls on its own generator return,
    # however the reads are blocked, and after rows are dropped; block 0
    # reads no further ahead than taken
    seeds = list(range(rows))
    streams = RowStreams([np.random.default_rng(s) for s in seeds], kind, block)
    refs = [np.random.default_rng(s) for s in seeds]
    live = list(range(rows))
    for i, n in enumerate(takes):
        if i == keep_at and len(live) > 1:
            keep = np.array([r % 2 == 0 for r in range(len(live))])
            streams.keep(keep)
            live = [r for r, k in zip(live, keep) if k]
        out = streams.take(n)
        assert out.shape == (len(live), n)
        for pos, r in enumerate(live):
            expected = [getattr(refs[r], kind)() for _ in range(n)]
            assert out[pos].tolist() == expected
    if block == 0:
        for rng, r in zip(streams.rngs, live):
            assert getattr(rng, kind)() == getattr(refs[r], kind)()


def test_row_dot_equals_one_dimensional_dot():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 5, 17, 50):
        a = rng.standard_normal((6, dim)) * 10.0 ** rng.uniform(-5, 5, (6, 1))
        b = rng.standard_normal((6, dim))
        assert row_dot(a, b).tolist() == [float(np.dot(x, y)) for x, y in zip(a, b)]


def test_stacked_dot_fallback_is_vecdot_and_the_row_dot_bit_for_bit():
    # numpy 1.x has no vecdot and takes _stacked_dot: the same bits as
    # vecdot and as 0.0 + np.dot per row, on every dim 1-257, R in 1-200,
    # row magnitudes 1e-300..1e300 (products that overflow or underflow
    # included) and zero rows; np.dot of one-element rows returns a zero
    # product's sign, where a sum that starts at +0.0 returns +0.0
    rng = np.random.default_rng(5)
    counts = (1, 2, 3, 5, 17, 64, 129, 200)
    for dim in range(1, 258):
        rows = counts[dim % len(counts)]
        a = rng.standard_normal((rows, dim)) * 10.0 ** rng.uniform(-300.0, 300.0, (rows, 1))
        b = rng.standard_normal((rows, dim)) * 10.0 ** rng.uniform(-300.0, 300.0, (rows, 1))
        a[3::7] = 0.0
        b[4::5] = 0.0
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            stacked = _stacked_dot(a, b)
            expected = [np.array([0.0 + np.dot(x, y) for x, y in zip(a, b)])]
            if hasattr(np, "vecdot"):  # numpy >= 2
                expected.append(np.vecdot(a, b))
        assert all(stacked.tobytes() == want.tobytes() for want in expected), (dim, rows)
