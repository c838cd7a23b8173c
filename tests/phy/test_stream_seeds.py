"""Exactness battery for the stream-seed kernel.

``repro.phy.kernels.stream_seeds(seeds, names)`` derives the seeds a
fleet engine gives each network's streams: ``RandomStreams(seed)
.seed_of("slots")`` and ``RandomStreams(seed).fork(name)
.seed_of("offset")``, each the first 8 bytes (little-endian) of a
SHA-256 digest.  The compiled entry hashes in C; it, its twin and
``RandomStreams`` itself must agree on every seed and name: ends of the
seed range, every decimal length, non-ASCII names, and names long
enough for the message to need a second or third SHA-256 block (the
0x80 marker or the bit length spilling over a block boundary).
"""

import numpy as np
import pytest

from repro.fleet import FleetEngine, specs_for_seeds
from repro.phy import _kernels_c, kernels
from repro.phy.kernels import _NUMPY_IMPL
from repro.sim.random import RandomStreams

MASK64 = (1 << 64) - 1

#: Both ends of the range, the 32-bit word boundary, and every decimal
#: length's first value.
EDGE_SEEDS = sorted(
    {0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, MASK64}
    | {10**k for k in range(20)}
    | {10**k - 1 for k in range(1, 20)}
)

#: A fleet roster's names and names that are empty, non-ASCII
#: (two-, three- and four-byte UTF-8) or long.
NAMES = ["tag1", "tag12", "", "ü", "标签", "🚗", "tag-ü-标签"]

#: Message lengths (decimal seed + separator + name) around each block
#: boundary: a one-block message holds at most 55 bytes, a two-block
#: one 119.
LONG_LENGTHS = [54, 55, 56, 57, 63, 64, 65, 118, 119, 120, 127, 128, 129, 200]


def random_seeds(n):
    rng = np.random.default_rng(20261020)
    return (
        rng.integers(0, MASK64, size=n, dtype=np.uint64, endpoint=True).tolist()
        + rng.integers(0, 2**32, size=n // 4, dtype=np.uint64).tolist()
    )


def reference(seeds, names):
    """``(slots, offsets)`` as ``RandomStreams`` derives them."""
    slots = [RandomStreams(s).seed_of("slots") for s in seeds]
    offsets = [
        [RandomStreams(s).fork(name).seed_of("offset") for name in names]
        for s in seeds
    ]
    return slots, offsets


def compiled_table():
    kernels.kernel_info()  # forces selection
    table = kernels._compiled
    if table is None or "stream_seeds" not in table:
        pytest.skip(
            "no compiled stream-seed entry "
            f"({kernels._load_errors or kernels.kernel_info()['composed']})"
        )
    return table


@pytest.fixture(params=["cext", "numpy"])
def table(request):
    return compiled_table() if request.param == "cext" else _NUMPY_IMPL


@pytest.fixture
def fresh_selection():
    """Drop the pinned backend, restore it after the test."""
    kernels.reset_selection()
    yield
    kernels.reset_selection()


def check(table, seeds, names):
    slots, offsets = table["stream_seeds"](seeds, names)
    assert slots.dtype == offsets.dtype == np.uint64
    assert offsets.shape == (len(seeds), len(names))
    want_slots, want_offsets = reference(seeds, names)
    assert slots.tolist() == want_slots
    assert offsets.tolist() == want_offsets


class TestDerivation:
    def test_edge_and_random_seeds(self, table):
        seeds = EDGE_SEEDS + random_seeds(4000)
        assert len(seeds) >= 4000
        check(table, seeds, NAMES)

    @pytest.mark.parametrize("digits", [1, 10, 20])
    def test_names_across_block_boundaries(self, table, digits):
        # Fork messages are the seed's digits, "/", then the name: the
        # ASCII names put the message on each side of each boundary,
        # for one-, ten- and twenty-digit seeds; the two-byte ones are
        # as many characters and twice the bytes.
        seed = {1: 7, 10: 4_294_967_296, 20: MASK64}[digits]
        assert len(str(seed)) == digits
        lengths = [length - digits - 1 for length in LONG_LENGTHS]
        names = ["x" * n for n in lengths] + ["é" * n for n in lengths]
        check(table, [seed, 0, 123456789], names)

    def test_no_seeds_or_no_names(self, table):
        check(table, [], NAMES)
        check(table, EDGE_SEEDS, [])


class TestDispatcher:
    def test_matches_the_reference_on_the_active_backend(self):
        check({"stream_seeds": kernels.stream_seeds}, EDGE_SEEDS, NAMES)

    def test_takes_numpy_integers_and_any_name_iterable(self):
        seeds = np.array([3, 2**63], dtype=np.uint64)
        slots, offsets = kernels.stream_seeds(seeds, (n for n in ["tag1", "tag2"]))
        assert slots.tolist() == reference([3, 2**63], ["tag1"])[0]
        assert offsets.tolist() == reference([3, 2**63], ["tag1", "tag2"])[1]

    @pytest.mark.parametrize("backend", ["cext", "numpy"])
    def test_out_of_range_seeds_run_the_twin(self, backend, monkeypatch):
        if backend == "cext":
            compiled = compiled_table()
            calls = []
            entry = compiled["stream_seeds"]

            def spy(seeds, names):
                calls.append(list(seeds))
                return entry(seeds, names)

            monkeypatch.setitem(compiled, "stream_seeds", spy)
        seeds = [-1, 2**64, 2**70, 5]
        with kernels.use_backend(backend):
            check({"stream_seeds": kernels.stream_seeds}, seeds, NAMES)
            check({"stream_seeds": kernels.stream_seeds}, [5, 0], NAMES)
        if backend == "cext":
            assert calls == [[5, 0]]
        assert "outside [0, 2**64)" in kernels.kernel_info()["routes"]["stream_seeds"]

    @pytest.mark.parametrize("seed", [1.0, True, "7", None])
    def test_rejects_non_integer_seeds(self, seed):
        with pytest.raises(ValueError, match="seed"):
            kernels.stream_seeds([0, seed], NAMES)

    @pytest.mark.parametrize("name", [b"tag1", 3, None])
    def test_rejects_non_str_names(self, name):
        with pytest.raises(TypeError, match="str"):
            kernels.stream_seeds([0], ["tag1", name])


def fleet_state():
    engine = FleetEngine(
        {"tag1": 4, "tag2": 8, "tag3": 8}, specs_for_seeds([0, 2**63, 9])
    )
    engine.run(200)
    return (
        engine._uniforms._states.tobytes(),
        engine._offsets._states.tobytes(),
        engine.summaries(),
    )


class TestLoadProbe:
    def test_probe_accepts_the_compiled_entry(self):
        assert _kernels_c._stream_seeds_match_hashlib(
            compiled_table()["stream_seeds"]
        )

    def test_probe_rejects_a_wrong_entry(self):
        entry = compiled_table()["stream_seeds"]

        def big_endian(seeds, names):
            slots, offsets = entry(seeds, names)
            return slots.byteswap(), offsets

        def short_names(seeds, names):
            # Hashes names cut to one block: only long names differ.
            return entry(seeds, [name[:40] for name in names])

        assert not _kernels_c._stream_seeds_match_hashlib(big_endian)
        assert not _kernels_c._stream_seeds_match_hashlib(short_names)

    def test_failed_probe_leaves_the_entry_out(self, monkeypatch, fresh_selection):
        compiled_table()
        want = fleet_state()
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        monkeypatch.setattr(
            _kernels_c, "_stream_seeds_match_hashlib", lambda stream_seeds: False
        )
        kernels.reset_selection()
        info = kernels.kernel_info()
        assert info["backend"] == "cext"
        assert "stream_seeds" not in kernels._compiled
        assert "SHA-256" in info["composed"]["stream_seeds"]
        assert "fleet_run" in kernels._compiled
        check({"stream_seeds": kernels.stream_seeds}, EDGE_SEEDS, NAMES)
        assert fleet_state() == want
