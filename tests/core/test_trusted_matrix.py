"""Traffic matrices are validated where they enter and trusted where derived.

Every matrix derived from validated ones skips the label, packet and colour
checks (``_trusted=True``).  These tests pin that the shortcut changes
nothing observable: each derivation equals the validated constructor run on
the same arrays, and every entry point still rejects bad input with the same
message.  Every producer, in-process or across a pickle, hands out an
immutable value: its grids refuse writes.
"""

import hashlib
import json
import pickle
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runtime
from repro.core.colors import COLOR_CODES, EXTENDED_COLOR_CODES, validate_color_grid
from repro.core.labels import space_labels
from repro.core.spaces import DEFAULT_PREFIXES, NetworkSpace, SpaceMap, space_of_label
from repro.core.traffic_matrix import TrafficMatrix
from repro.errors import ColorError, LabelError, ShapeError, TrafficMatrixError
from repro.graphs.compose import overlay
from repro.graphs.noise import background_noise, with_noise
from repro.scenarios import OverlaySpec, ScenarioCache, ScenarioSpec, apply_delta, generate_batch
from repro.store import ScenarioStore, decode_matrix, encode_matrix

INT64_MAX = np.iinfo(np.int64).max


@st.composite
def matrices(draw, n=None, extended=None):
    """A validated matrix: space labels in a drawn order, packets, colours, meta."""
    n = draw(st.integers(1, 7)) if n is None else n
    labels = list(space_labels(n))
    if draw(st.booleans()):
        labels = draw(st.permutations(labels))
    extended = draw(st.booleans()) if extended is None else extended
    codes = EXTENDED_COLOR_CODES if extended else COLOR_CODES
    packets = draw(st.lists(st.integers(0, 40), min_size=n * n, max_size=n * n))
    colors = draw(st.lists(st.sampled_from(codes), min_size=n * n, max_size=n * n))
    meta = draw(st.dictionaries(st.sampled_from(["scenario", "k"]), st.integers(0, 9), max_size=2))
    return TrafficMatrix(
        np.asarray(packets, dtype=np.int64).reshape(n, n),
        labels,
        np.asarray(colors).reshape(n, n),
        extended_colors=extended,
        meta=meta,
    )


@st.composite
def pairs(draw):
    """Two matrices on one axis (the second may use the extended palette)."""
    a = draw(matrices())
    b = draw(matrices(n=a.n))
    b = TrafficMatrix(b.packets, a.labels, b.colors, extended_colors=b.extended_colors)
    return a, b


def validated(packets, labels, colors, *, extended=False, meta=None):
    """The public, fully validating constructor on plain copies of the arrays."""
    return TrafficMatrix(
        np.array(packets),
        list(labels),
        np.array(colors),
        extended_colors=extended,
        meta=meta,
    )


def assert_same(derived, reference):
    assert derived == reference
    assert derived.labels == reference.labels
    assert derived.extended_colors == reference.extended_colors
    assert derived.meta == reference.meta
    assert derived.packets.dtype == np.int64 and derived.colors.dtype == np.int8


def assert_frozen(m):
    """Writing either grid of *m* raises: the matrix is an immutable value."""
    assert isinstance(m, TrafficMatrix)
    for grid in (m.packets, m.colors):
        assert not grid.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            grid += 1


class TestTrustedDerivations:
    @given(matrices())
    def test_with_meta(self, m):
        out = m.with_meta(extra=3)
        ref = validated(
            m.packets, m.labels, m.colors, extended=m.extended_colors, meta={**m.meta, "extra": 3}
        )
        assert_same(out, ref)
        assert "extra" not in m.meta

    @given(pairs())
    def test_add(self, pair):
        a, b = pair
        out = a + b
        ref = validated(
            a.packets + b.packets,
            a.labels,
            np.maximum(a.colors, b.colors),
            extended=a.extended_colors or b.extended_colors,
        )
        assert_same(out, ref)

    @given(matrices(), st.integers(0, 5))
    def test_scale(self, m, k):
        out = m * k
        assert_same(out, validated(m.packets * k, m.labels, m.colors, extended=m.extended_colors))
        assert_same(k * m, out)

    @given(matrices())
    def test_transpose(self, m):
        out = m.transpose()
        assert_same(out, validated(m.packets.T, m.labels, m.colors.T, extended=m.extended_colors))
        assert_same(m.T, out)
        # a transpose is a read-only view of its source's grids, not a copy
        assert np.shares_memory(out.packets, m.packets)
        assert np.shares_memory(out.colors, m.colors)

    @given(matrices())
    def test_with_space_colors(self, m):
        out = m.with_space_colors()
        grid = SpaceMap.infer(m.labels).color_grid()
        assert_same(out, validated(m.packets, m.labels, grid, extended=m.extended_colors))

    @given(matrices(), st.data())
    def test_submatrix(self, m, data):
        picked = data.draw(st.lists(st.sampled_from(m.labels), unique=True))
        idx = [m.labels.index(lb) for lb in picked]
        out = m.submatrix(picked)
        sel = np.ix_(idx, idx)
        ref = validated(m.packets[sel], picked, m.colors[sel], extended=m.extended_colors)
        assert_same(out, ref)

    @given(pairs())
    def test_dense_overlay(self, pair):
        a, b = pair
        assert_same(overlay([a, b]), a + b)
        assert_same(overlay([a]), a)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(16, 24), st.integers(0, 2**16))
    def test_sparse_overlay(self, n, seed):
        """Sparse stacks under a parallel runtime sum densely like any other."""
        layers = [
            background_noise(n, density=0.05, max_packets=9, seed=seed + k, labels=space_labels(n))
            .with_space_colors()
            for k in range(3)
        ]
        nnz = sum(m.nnz() for m in layers)
        assert nnz * 8 <= n * n * len(layers)
        with runtime.configured(workers=2, backend="thread", min_parallel_work=0):
            out = overlay(layers)
        dense = layers[0] + layers[1] + layers[2]
        assert_same(out, validated(dense.packets, dense.labels, dense.colors))

    @given(matrices(), st.integers(0, 2**16), st.booleans())
    def test_with_noise(self, m, seed, preserve):
        out = with_noise(m, density=0.3, max_packets=3, seed=seed, preserve_pattern=preserve)
        noise = background_noise(m.n, density=0.3, max_packets=3, seed=seed, labels=m.labels)
        packets = noise.packets
        if preserve:
            packets = np.where(m.packets > 0, 0, packets)
        ref = validated(m.packets + packets, m.labels, m.colors, extended=m.extended_colors)
        assert_same(out, ref)

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(["ring", "star", "security", "planning"]),
        st.sampled_from(["ddos_attack", "background_noise", "clique"]),
        st.integers(6, 14),
        st.integers(0, 99),
    )
    def test_apply_delta_assembly(self, base, layer, n, seed):
        spec = ScenarioSpec(base=base, n=n, seed=seed)
        result = apply_delta(spec, [OverlaySpec(name=layer)])
        full = result.spec.build()
        m = result.matrix
        ref = validated(m.packets, m.labels, m.colors, extended=m.extended_colors, meta=m.meta)
        assert_same(m, ref)
        assert_same(m, full)


MATRIX_PRODUCERS = {
    "constructor": lambda a, b: validated(
        a.packets, a.labels, a.colors, extended=a.extended_colors, meta=a.meta
    ),
    "zeros": lambda a, b: TrafficMatrix.zeros(a.n, a.labels),
    "identity": lambda a, b: TrafficMatrix.identity(a.n, 2, a.labels),
    "from_edges": lambda a, b: TrafficMatrix.from_edges(a.iter_edges(), a.labels),
    "from_json_fields": lambda a, b: TrafficMatrix.from_json_fields(
        a.packets.tolist(), list(a.labels), b.colors.tolist() if not b.extended_colors else None
    ),
    "add": lambda a, b: a + b,
    "scale": lambda a, b: a * 3,
    "transpose": lambda a, b: a.transpose(),
    "submatrix": lambda a, b: a.submatrix(a.labels[::-1]),
    "with_colors": lambda a, b: a.with_colors(b.colors, extended_colors=b.extended_colors),
    "with_space_colors": lambda a, b: a.with_space_colors(),
    "with_meta": lambda a, b: a.with_meta(extra={"k": [1]}),
    "masked_where": lambda a, b: a.masked_where(b),
    "compose": lambda a, b: a.compose(b),
    "overlay": lambda a, b: overlay([a, b]),
    "overlay_one": lambda a, b: overlay([a]),
    "with_noise": lambda a, b: with_noise(a, density=0.3, max_packets=3, seed=7),
    "decode_matrix": lambda a, b: decode_matrix(encode_matrix(a)),
    "pickle_protocol_4": lambda a, b: pickle.loads(pickle.dumps(a, protocol=4)),
    "pickle_default": lambda a, b: pickle.loads(pickle.dumps(a)),
}


class TestImmutability:
    """Every producer hands out a matrix whose grids refuse writes."""

    @given(pairs(), st.sampled_from(sorted(MATRIX_PRODUCERS)))
    def test_matrix_producers(self, pair, name):
        a, b = pair
        out = MATRIX_PRODUCERS[name](a, b)
        assert_frozen(out)
        assert_frozen(a)
        assert_frozen(b)

    @given(matrices())
    def test_pickle_round_trip_keeps_the_value(self, m):
        for protocol in (4, pickle.HIGHEST_PROTOCOL):
            back = pickle.loads(pickle.dumps(m, protocol=protocol))
            assert_same(back, m)
            assert_frozen(back)

    def test_matrix_has_no_mutators(self):
        m = TrafficMatrix.identity(3)
        for name in ("__setitem__", "add_packets", "set_color", "copy"):
            assert not hasattr(m, name)
        with pytest.raises(TypeError):
            m[0, 1] = 4

    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from(["ring", "star", "security", "ddos_attack"]),
        st.integers(6, 12),
        st.integers(0, 99),
    )
    def test_scenario_producers(self, base, n, seed):
        """Builds, delta rebuilds, store reads and both cache tiers."""
        spec = ScenarioSpec(base=base, n=n, seed=seed)
        built = spec.build()
        assert_frozen(built)
        assert_frozen(apply_delta(spec, [OverlaySpec(name="clique")]).matrix)
        with tempfile.TemporaryDirectory() as root:
            with ScenarioStore(root, fsync=False) as store:
                writer = ScenarioCache(store=store)
                writer.put(spec, built)
                assert writer.get(spec) is built  # an L1 hit is the put object
                writer.flush()
                assert_frozen(store.get(spec))
                reader = ScenarioCache(store=store)
                promoted, tier = reader.fetch_tiered(spec)
                assert tier == "l2"
                assert_frozen(promoted)
                hit, tier = reader.fetch_tiered(spec)
                assert (tier, hit is promoted) == ("l1", True)

    def test_process_pool_batch(self):
        specs = [ScenarioSpec(base=base, n=10, seed=3) for base in ("ring", "star", "security")]
        out = generate_batch(specs, workers=2, backend="process")
        for spec, matrix in zip(specs, out):
            assert_same(matrix, spec.build())
            assert_frozen(matrix)


class TestEntryPointsStillValidate:
    def test_constructor_rejects_bad_labels(self):
        with pytest.raises(LabelError, match="axis label '1AB' is invalid"):
            TrafficMatrix(np.zeros((2, 2)), ["1ab", "WS1"])
        with pytest.raises(LabelError, match="duplicate axis label 'WS1'"):
            TrafficMatrix(np.zeros((2, 2)), ["WS1", "ws1"])
        with pytest.raises(LabelError, match="level data does not match number of labels"):
            TrafficMatrix(np.zeros((2, 2)), ["WS1"])

    def test_constructor_rejects_bad_packets(self):
        with pytest.raises(TrafficMatrixError, match=r"packet count at \(1, 0\) is negative \(-2\)"):
            TrafficMatrix([[0, 1], [-2, -1]])
        with pytest.raises(TrafficMatrixError, match="packet counts must be integers"):
            TrafficMatrix([[0.5, 1], [0, 0]])
        with pytest.raises(ShapeError, match="must be square 2-D"):
            TrafficMatrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("extended,code", [(False, 3), (False, -1), (True, 5), (True, -1)])
    def test_constructor_and_with_colors_reject_bad_codes(self, extended, code):
        grid = [[0, 1], [2, code]]
        allowed = sorted(EXTENDED_COLOR_CODES if extended else COLOR_CODES)
        message = rf"invalid code {code} at \(1, 1\); allowed codes are {allowed}"
        with pytest.raises(ColorError, match=message.replace("[", r"\[").replace("]", r"\]")):
            TrafficMatrix(np.eye(2, dtype=int), colors=grid, extended_colors=extended)
        base = TrafficMatrix(np.eye(2, dtype=int), extended_colors=extended)
        with pytest.raises(ColorError, match="invalid code"):
            base.with_colors(grid)

    def test_from_json_fields_validates(self):
        with pytest.raises(LabelError, match="is invalid"):
            TrafficMatrix.from_json_fields([[0, 1], [1, 0]], ["WS1", "W S"])
        with pytest.raises(TrafficMatrixError, match="is negative"):
            TrafficMatrix.from_json_fields([[0, -1], [1, 0]], ["WS1", "WS2"])
        with pytest.raises(ColorError, match="invalid code 7"):
            TrafficMatrix.from_json_fields([[0, 1], [1, 0]], ["WS1", "WS2"], [[0, 7], [0, 0]])

    def test_submatrix_rejects_a_repeated_endpoint(self):
        m = TrafficMatrix.identity(6)
        with pytest.raises(LabelError, match="duplicate axis label 'WS1'"):
            m.submatrix(["WS1", "WS2", 0])

    def test_add_overflow_raises(self):
        big = TrafficMatrix([[INT64_MAX, 0], [0, 0]])
        with pytest.raises(TrafficMatrixError, match=r"packet count at \(0, 0\) is negative"):
            big + TrafficMatrix([[1, 0], [0, 0]])

    def test_scale_overflow_raises(self):
        big = TrafficMatrix([[0, 0], [2**62, 0]])
        with pytest.raises(TrafficMatrixError, match=r"packet count at \(1, 0\) is negative"):
            big * 3

    def test_decode_rejects_a_tampered_label(self):
        """A frame re-sealed around a bad label still fails label validation."""
        data = encode_matrix(TrafficMatrix.identity(6))
        length = struct.Struct("<Q")
        (header_len,) = length.unpack_from(data, 8)
        header = json.loads(data[16 : 16 + header_len])
        header["labels"][2] = "2BAD"
        header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        body = data[:8] + length.pack(len(header_bytes)) + header_bytes + data[16 + header_len : -32]
        with pytest.raises(LabelError, match="'2BAD' is invalid"):
            decode_matrix(body + hashlib.sha256(body).digest())


def _isin_rule(grid, extended):
    """The ``np.isin`` scan the range check replaced."""
    arr = np.asarray(grid, dtype=np.int64)
    allowed = EXTENDED_COLOR_CODES if extended else COLOR_CODES
    bad = ~np.isin(arr, allowed)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return f"colour grid contains invalid code {int(arr[i, j])} at ({int(i)}, {int(j)}); allowed codes are {sorted(allowed)}"
    return arr.astype(np.int8)


@given(
    st.integers(0, 5).flatmap(
        lambda n: st.lists(st.integers(-3, 7), min_size=n * n, max_size=n * n).map(
            lambda cells: np.asarray(cells, dtype=np.int64).reshape(n, n)
        )
    ),
    st.booleans(),
)
def test_color_range_check_matches_the_isin_scan(grid, extended):
    expected = _isin_rule(grid, extended)
    try:
        got = validate_color_grid(grid, extended=extended)
    except ColorError as exc:
        assert str(exc) == expected
    else:
        assert isinstance(expected, np.ndarray)
        assert got.dtype == np.int8 and np.array_equal(got, expected)
    assert np.array_equal(validate_color_grid(grid, strict=False, extended=extended), grid.astype(np.int8))


class TestSpaceMapMemo:
    @given(st.integers(1, 40), st.booleans(), st.randoms(use_true_random=False))
    def test_memoised_map_equals_a_fresh_one(self, n, shuffle, rnd):
        labels = list(space_labels(n))
        if shuffle:
            rnd.shuffle(labels)
        memo = SpaceMap.infer(labels)
        assert memo == SpaceMap(tuple(labels), tuple(map(space_of_label, labels)))
        assert SpaceMap.infer(tuple(labels)) is memo

    def test_custom_prefixes_bypass_the_cache(self):
        labels = space_labels(10)
        custom = {"WS": NetworkSpace.RED}
        first = SpaceMap.infer(labels, custom)
        assert first is not SpaceMap.infer(labels, custom)
        assert first.spaces == tuple(space_of_label(lb, custom) for lb in labels)
        copy_of_default = dict(DEFAULT_PREFIXES)
        assert SpaceMap.infer(labels, copy_of_default) is not SpaceMap.infer(labels, copy_of_default)
        assert SpaceMap.infer(labels, copy_of_default) == SpaceMap.infer(labels)

    def test_default_prefixes_are_read_only(self):
        with pytest.raises(TypeError):
            DEFAULT_PREFIXES["WS"] = NetworkSpace.RED  # type: ignore[index]

    def test_matrices_on_one_axis_share_one_map(self):
        a = TrafficMatrix.identity(10)
        assert a.space_map is (a * 2).space_map is SpaceMap.infer(a.labels)
