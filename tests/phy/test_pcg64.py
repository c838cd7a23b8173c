"""Exactness battery for the PCG64 stream kernels.

``repro.phy.kernels.pcg64_seed`` and ``pcg64_refill`` hold numpy
generators as rows of state and replay numpy's ``SeedSequence`` and
``PCG64`` seeding and ``Generator.random`` / ``Generator.integers``
draws on them; the fleet engine's RNG banks run on nothing else.  The
compiled entries, their numpy twins and numpy's own generators must
agree byte for byte: on every seed, every draw and the state left
behind, the 32-bit half-word carry included.
"""

import numpy as np
import pytest

from repro.fleet import FleetEngine, specs_for_seeds
from repro.phy import _kernels_c, kernels
from repro.phy.kernels import _NUMPY_IMPL

MASK64 = (1 << 64) - 1

#: Seeds at the one/two-word boundary and the ends of the range.
EDGE_SEEDS = [0, 1, 2, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

#: Bounds with and without Lemire rejections, bound 1 (no draw) and
#: every power of two up to 2**31.
BOUNDS = sorted(
    {2, 3, 4, 5, 6, 7, 8, 12, 16, 32, 100, 256, 1000, 2**31 + 5, 2**32 - 1}
    | {2**k for k in range(32)}
)

#: Chained ``integers`` calls: 1, 3 and 7 draws leave an odd number of
#: 32-bit halves, so the next call starts on the carried high half.
CHAIN = (64, 1, 3, 64, 7, 2)


def seeds_under_test(n_random=2000):
    rng = np.random.default_rng(20261019)
    return np.concatenate([
        np.array(EDGE_SEEDS, dtype=np.uint64),
        rng.integers(0, MASK64, size=n_random, dtype=np.uint64, endpoint=True),
        rng.integers(0, 2**32, size=n_random, dtype=np.uint64),
    ])


def state_row(bitgen):
    """``bitgen``'s state as a ``pcg64_seed`` row, read from numpy."""
    st = bitgen.state
    value, inc = st["state"]["state"], st["state"]["inc"]
    return [
        value >> 64, value & MASK64, inc >> 64, inc & MASK64,
        st["has_uint32"], st["uinteger"],
    ]


def state_rows(gens):
    return np.array([state_row(g.bit_generator) for g in gens], dtype=np.uint64)


def generators(seeds):
    return [np.random.Generator(np.random.PCG64(s)) for s in seeds.tolist()]


def compiled_table():
    kernels.kernel_info()  # forces selection
    table = kernels._compiled
    if table is None or "pcg64_refill" not in table:
        pytest.skip(
            "no compiled PCG64 entries "
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


class TestSeeding:
    def test_rows_are_numpys_pcg64_state(self, table):
        seeds = seeds_under_test()
        got = table["pcg64_seed"](seeds)
        want = np.array(
            [state_row(np.random.PCG64(s)) for s in seeds.tolist()], dtype=np.uint64
        )
        assert got.dtype == np.uint64 and got.shape == (seeds.size, 6)
        assert got.tobytes() == want.tobytes()

    def test_dispatcher_takes_python_ints(self):
        rows = kernels.pcg64_seed(EDGE_SEEDS)
        want = np.array([state_row(np.random.PCG64(s)) for s in EDGE_SEEDS],
                        dtype=np.uint64)
        assert rows.tobytes() == want.tobytes()


class TestDraws:
    def test_random_fill(self, table):
        seeds = seeds_under_test(100)
        states = table["pcg64_seed"](seeds)
        buf = np.zeros((seeds.size, 1000))
        cursor = np.full(seeds.size, 1000, dtype=np.int64)
        table["pcg64_refill"](states, buf, cursor, 1000, None)
        gens = generators(seeds)
        want = np.stack([g.random(1000) for g in gens])
        assert buf.tobytes() == want.tobytes()
        assert states.tobytes() == state_rows(gens).tobytes()
        assert not cursor.any()

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_chained_integers_interleaved_with_random(self, table, bound):
        # The twin sets a PCG64's state per stream and call: fewer streams.
        n = 500 if table is not _NUMPY_IMPL else 24
        seeds = seeds_under_test(n)[: n]
        states = table["pcg64_seed"](seeds)
        gens = generators(seeds)
        bounds = np.full(n, bound, dtype=np.int64)
        for size in CHAIN:
            picks = np.zeros((n, size), dtype=np.int64)
            table["pcg64_refill"](
                states, picks, np.full(n, size, dtype=np.int64), size, bounds
            )
            want = np.stack([g.integers(0, bound, size=size) for g in gens])
            assert picks.tobytes() == want.tobytes()
            uniforms = np.zeros((n, 3))
            table["pcg64_refill"](
                states, uniforms, np.full(n, 3, dtype=np.int64), 3, None
            )
            assert uniforms.tobytes() == np.stack([g.random(3) for g in gens]).tobytes()
        # State, has_uint32 and uinteger: the carry survives every call.
        assert states.tobytes() == state_rows(gens).tobytes()

    @pytest.mark.parametrize("bound", [None, 7])
    def test_partial_refill_keeps_unread_draws_first(self, table, bound):
        n, block = 12, 16
        seeds = seeds_under_test(n)[:n]
        bounds = None if bound is None else np.full(n, bound, dtype=np.int64)
        dtype = np.float64 if bound is None else np.int64
        states = table["pcg64_seed"](seeds)
        buf = np.zeros((n, block), dtype=dtype)
        table["pcg64_refill"](states, buf, np.full(n, block, dtype=np.int64),
                              block, bounds)
        cursor = np.arange(n, dtype=np.int64)  # stream s has read s draws
        needed = block - 5  # streams 0..5 hold enough and are left alone
        table["pcg64_refill"](states, buf, cursor, needed, bounds)
        for s, gen in enumerate(generators(seeds)):
            draws = (
                gen.random(2 * block) if bound is None
                else gen.integers(0, bound, size=2 * block)
            )
            low = s > 5
            want = draws[s : s + block] if low else draws[:block]
            assert buf[s].tobytes() == want.tobytes()
            assert cursor[s] == (0 if low else s)

    def test_backend_switch_between_refills(self):
        compiled_table()
        n = 64
        seeds = seeds_under_test(n)[:n]
        gens = generators(seeds)
        states = kernels.pcg64_seed(seeds)
        bounds = np.resize(np.array([3, 1, 2**31 + 5, 12], dtype=np.int64), n)
        for k, size in enumerate((5, 1, 3, 8, 7, 1, 2)):
            with kernels.use_backend(("cext", "numpy")[k % 2]):
                picks = np.zeros((n, size), dtype=np.int64)
                kernels.pcg64_refill(
                    states, picks, np.full(n, size, dtype=np.int64), size, bounds
                )
            want = np.stack([g.integers(0, b, size=size) for g, b in zip(gens, bounds)])
            assert picks.tobytes() == want.tobytes()
        assert states.tobytes() == state_rows(gens).tobytes()

    @pytest.mark.parametrize("bound", [2**32, 2**40 + 3])
    def test_bounds_from_2_32_run_the_twin(self, bound):
        seeds = np.array(EDGE_SEEDS, dtype=np.uint64)
        states = kernels.pcg64_seed(seeds)
        picks = np.zeros((seeds.size, 9), dtype=np.int64)
        kernels.pcg64_refill(
            states, picks, np.full(seeds.size, 9, dtype=np.int64), 9,
            np.full(seeds.size, bound, dtype=np.int64),
        )
        gens = generators(seeds)
        want = np.stack([g.integers(0, bound, size=9) for g in gens])
        assert picks.tobytes() == want.tobytes()
        assert states.tobytes() == state_rows(gens).tobytes()

    def test_bad_input_is_refused(self):
        states = kernels.pcg64_seed([1, 2])
        cursor = np.full(2, 4, dtype=np.int64)
        with pytest.raises(ValueError, match="high <= 0"):
            kernels.pcg64_refill(states, np.zeros((2, 4), dtype=np.int64), cursor,
                                 4, np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="agree per stream"):
            kernels.pcg64_refill(states, np.zeros((3, 4)), cursor, 4)
        with pytest.raises(ValueError, match="agree per stream"):
            kernels.pcg64_refill(states, np.zeros((2, 4), dtype=np.int64), cursor,
                                 4, np.ones(3, dtype=np.int64))
        for bad in (5, -1):
            with pytest.raises(ValueError, match="within its block"):
                kernels.pcg64_refill(states, np.zeros((2, 4)),
                                     np.array([0, bad], dtype=np.int64), 4)
        if kernels.backend() == "cext" and "pcg64_refill" in kernels._compiled:
            with pytest.raises(TypeError, match="C-contiguous float64"):
                kernels.pcg64_refill(states, np.zeros((2, 4), dtype=np.float32),
                                     cursor, 4)


def fleet_run():
    periods = {"tag1": 4, "tag2": 8, "tag3": 8, "tag4": 16}
    engine = FleetEngine(periods, specs_for_seeds(range(16)))
    engine.run(200)
    return (
        engine._uniforms._states.tobytes(),
        engine._offsets._states.tobytes(),
        [getattr(engine.log, name).tobytes() for name, _ in engine.log.FIELDS],
        engine.summaries(),
    )


class TestLoadProbe:
    def test_probe_accepts_the_compiled_entries(self):
        table = compiled_table()
        assert _kernels_c._pcg64_matches_numpy(
            table["pcg64_seed"], table["pcg64_refill"]
        )

    def test_probe_rejects_a_misdrawn_entry(self):
        table = compiled_table()
        seed, refill = table["pcg64_seed"], table["pcg64_refill"]

        def swapped_words(seeds):
            return seed(seeds)[:, [1, 0, 2, 3, 4, 5]].copy()

        def dropped_carry(states, buf, cursor, needed, bounds):
            refill(states, buf, cursor, needed, bounds)
            states[:, 4] = 0

        assert not _kernels_c._pcg64_matches_numpy(swapped_words, refill)
        assert not _kernels_c._pcg64_matches_numpy(seed, dropped_carry)

    def test_failed_probe_leaves_entries_out(self, monkeypatch, fresh_selection):
        compiled_table()
        reference = fleet_run()
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        monkeypatch.setattr(
            _kernels_c, "_pcg64_matches_numpy", lambda seed, refill: False
        )
        kernels.reset_selection()
        info = kernels.kernel_info()
        assert info["backend"] == "cext"
        for name in ("pcg64_seed", "pcg64_refill"):
            assert name not in kernels._compiled
            assert "PCG64 streams differ" in info["composed"][name]
        assert "fleet_run" in kernels._compiled
        assert fleet_run() == reference
