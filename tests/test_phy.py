"""Array response, channel synthesis, codebook, and beamforming metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamseq.phy import (
    ArrayGeometry,
    ChannelSnapshot,
    Codebook,
    OutageError,
    PathComponent,
    best_beams,
    build_dft_codebook,
    optimal_beam,
    steering_vector,
    synthesize_channel,
    synthesize_channels,
)
from beamseq.scene import SceneParams, build_channel_grid, generate_scene


def geom(n, spacing=0.5):
    return ArrayGeometry(num_antennas=n, spacing_wavelengths=spacing)


def term_by_term(paths, n, spacing=0.5):
    """Independent element-by-element evaluation of sum_p gain_p * a(aod_p)."""
    expected = np.zeros(n, dtype=complex)
    for p in paths:
        for i in range(n):
            expected[i] += p.gain * np.exp(-1j * 2 * np.pi * spacing * i * np.sin(p.aod))
    return expected


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        vec = steering_vector(geom(4), 0.0)
        np.testing.assert_array_equal(vec, np.ones(4, dtype=complex))

    def test_endfire_two_elements(self):
        # sin(pi/2) = 1 with half-wavelength spacing: phase step of -pi.
        vec = steering_vector(geom(2), np.pi / 2)
        np.testing.assert_allclose(vec, [1.0, -1.0], atol=1e-12, rtol=0)

    def test_thirty_degrees_hand_phases(self):
        # sin(pi/6) = 1/2, so element i carries exp(-j * pi * i / 2).
        vec = steering_vector(geom(8), np.pi / 6)
        expected = np.exp(-1j * np.pi * 0.5 * np.arange(8))
        np.testing.assert_allclose(vec, expected, atol=1e-12, rtol=0)

    def test_first_element_exactly_one(self):
        vec = steering_vector(geom(16), 0.7)
        assert vec[0] == 1.0 + 0.0j

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(3)
        for angle in rng.uniform(-np.pi / 2, np.pi / 2, size=20):
            a_pos = steering_vector(geom(16), angle)
            a_neg = steering_vector(geom(16), -angle)
            np.testing.assert_allclose(a_neg, np.conj(a_pos), atol=1e-15, rtol=0)

    def test_rejects_nonfinite_and_out_of_range(self):
        with pytest.raises(ValueError):
            steering_vector(geom(4), np.nan)
        with pytest.raises(ValueError):
            steering_vector(geom(4), np.inf)
        with pytest.raises(ValueError):
            steering_vector(geom(4), 2.0)

    def test_angle_array_matches_per_angle_vectors_bit_for_bit(self):
        angles = np.random.default_rng(19).uniform(-np.pi / 2, np.pi / 2, size=(6, 5))
        batch = steering_vector(geom(16), angles)
        assert batch.shape == (6, 5, 16)
        for (m, p), angle in np.ndenumerate(angles):
            np.testing.assert_array_equal(batch[m, p], steering_vector(geom(16), float(angle)))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, 1.6])
    def test_angle_array_with_one_bad_entry_rejected(self, bad):
        angles = np.zeros((3, 4))
        angles[2, 1] = bad
        with pytest.raises(ValueError):
            steering_vector(geom(4), angles)


# N = 1 and powers of two, plus sizes whose last doubling block is partial
KERNEL_SIZES = [1, 2, 3, 5, 33, 127, 128, 1024]
EDGE_ANGLES = [0.0, np.pi / 2, -np.pi / 2, np.pi / 2 - 1e-12, -(np.pi / 2 - 1e-12)]


class TestDoublingKernel:
    """steering_vector and synthesize_channels build the progression by
    doubling; check each block size against the term-by-term oracle."""

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    @pytest.mark.parametrize("angle", EDGE_ANGLES + [0.3, -1.1])
    def test_single_path_matches_oracle(self, n, angle):
        gain = 0.6 - 0.8j
        want = term_by_term([PathComponent(gain=gain, aod=angle, aoa=0.0)], n)
        np.testing.assert_allclose(
            gain * steering_vector(geom(n), angle), want, rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(
            synthesize_channels([gain], [angle], geom(n)), want, rtol=1e-12, atol=1e-15
        )

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_superposition_matches_oracle(self, n):
        rng = np.random.default_rng(n)
        aods = EDGE_ANGLES + list(rng.uniform(-np.pi / 2, np.pi / 2, size=4))
        paths = [
            PathComponent(gain=complex(rng.normal(), rng.normal()), aod=a, aoa=0.0)
            for a in aods
        ]
        expected = term_by_term(paths, n)
        err = np.linalg.norm(synthesize_channel(paths, geom(n)).coefficients - expected)
        assert err <= 1e-12 * np.linalg.norm(expected)

    def test_conjugation_symmetry_at_1024(self):
        angles = np.concatenate(
            [EDGE_ANGLES, np.random.default_rng(5).uniform(-np.pi / 2, np.pi / 2, size=20)]
        )
        np.testing.assert_allclose(
            steering_vector(geom(1024), -angles),
            np.conj(steering_vector(geom(1024), angles)),
            atol=1e-15, rtol=0,
        )

    def test_destructive_superposition_is_exactly_zero_at_1024(self):
        g = 0.3 - 0.4j
        for aod in EDGE_ANGLES + [0.2]:
            coeffs = synthesize_channels([[g, -g]], [[aod, aod]], geom(1024))
            np.testing.assert_array_equal(coeffs, np.zeros((1, 1024)))

    def test_batch_matches_per_angle_bit_for_bit_at_128(self):
        rng = np.random.default_rng(23)
        angles = rng.uniform(-np.pi / 2, np.pi / 2, size=(4, 3, 2))
        batch = steering_vector(geom(128), angles)
        assert batch.shape == (4, 3, 2, 128)
        for idx, angle in np.ndenumerate(angles):
            np.testing.assert_array_equal(batch[idx], steering_vector(geom(128), float(angle)))


def batch_oracle(gains, aods, n):
    """``term_by_term`` row by row for (M, P) path tables."""
    return np.array([
        term_by_term([PathComponent(gain=g, aod=a, aoa=0.0) for g, a in zip(gs, as_)], n)
        for gs, as_ in zip(gains, aods)
    ])


def assert_rows_match(got, want):
    err = np.linalg.norm(got - want, axis=-1)
    assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=-1))


class TestSharedAngleSynthesis:
    """Slots whose non-zero gains all carry one aod go through one GEMM; the
    rest through the doubling kernel. Both against the term-by-term oracle."""

    @staticmethod
    def mixed_batch(seed, m=6):
        # slots 0 and 2 vary per row; 1, 3 and 4 are shared, 3 and 4 on one
        # angle; slot 5 is shared but blocked (gain 0, aod 0) on some rows
        rng = np.random.default_rng(seed)
        gains = rng.normal(size=(m, 6)) + 1j * rng.normal(size=(m, 6))
        aods = np.empty((m, 6))
        aods[:, [0, 2]] = rng.uniform(-np.pi / 2, np.pi / 2, size=(m, 2))
        aods[:, 1], aods[:, 3:5], aods[:, 5] = -0.4, np.pi / 2, 1.1
        blocked = np.arange(m) % 3 == 1
        gains[blocked, 5], aods[blocked, 5] = 0.0, 0.0
        return gains, aods

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_mixed_shared_and_varying_slots_match_oracle(self, n):
        gains, aods = self.mixed_batch(n)
        got = synthesize_channels(gains, aods, geom(n))
        assert got.shape == (6, n)
        assert_rows_match(got, batch_oracle(gains, aods, n))
        # a leading batch shape is kept
        np.testing.assert_array_equal(
            synthesize_channels(gains.reshape(2, 3, 6), aods.reshape(2, 3, 6), geom(n)),
            got.reshape(2, 3, n),
        )

    @pytest.mark.parametrize("n", [1, 33, 128])
    def test_shared_slot_with_blocked_rows_at_aod_zero(self, n):
        # as _trace_points writes a scatterer slot: one angle where the path
        # exists, gain 0 and aod 0 where it is blocked
        gains = np.array([[0.3 - 0.2j], [0.0], [-0.1 + 0.5j], [0.0], [0.7j]])
        aods = np.where(gains != 0, 0.9, 0.0)
        got = synthesize_channels(gains, aods, geom(n))
        assert_rows_match(got, batch_oracle(gains, aods, n))
        np.testing.assert_array_equal(got[[1, 3]], np.zeros((2, n)))

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_opposite_gains_on_one_shared_angle_cancel_exactly(self, n):
        rng = np.random.default_rng(n)
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        for aod in EDGE_ANGLES + [0.2]:
            coeffs = synthesize_channels(np.stack([g, -g], axis=1), np.full((4, 2), aod), geom(n))
            np.testing.assert_array_equal(coeffs, np.zeros((4, n)))

    @pytest.mark.parametrize("n", [1, 5, 128])
    def test_all_zero_rows_stay_exactly_zero(self, n):
        gains, aods = self.mixed_batch(n + 7)
        gains[[0, 3]] = 0.0
        aods[3] = 0.0
        got = synthesize_channels(gains, aods, geom(n))
        np.testing.assert_array_equal(got[[0, 3]], np.zeros((2, n)))
        assert_rows_match(got, batch_oracle(gains, aods, n))
        np.testing.assert_array_equal(
            synthesize_channels(np.zeros((3, 4)), np.zeros((3, 4)), geom(n)), np.zeros((3, n))
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.6, 2.0])
    @pytest.mark.parametrize("slot", [0, 1, 5])  # varying, shared, shared with blocked rows
    def test_bad_angle_on_zero_gain_entry_rejected(self, bad, slot):
        gains, aods = self.mixed_batch(3)
        gains[1, slot], aods[1, slot] = 0.0, bad
        with pytest.raises(ValueError):
            synthesize_channels(gains, aods, geom(8))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_property_matches_oracle(self, data):
        m, p = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
        n = data.draw(st.sampled_from(KERNEL_SIZES[:-1]))
        angle = st.floats(-np.pi / 2, np.pi / 2)
        column_angle = st.one_of(st.sampled_from(EDGE_ANGLES + [0.3]), angle)
        aods = np.empty((m, p))
        for s in range(p):
            if data.draw(st.booleans(), label=f"slot {s} shared"):
                aods[:, s] = data.draw(column_angle)
            else:
                aods[:, s] = data.draw(st.lists(angle, min_size=m, max_size=m))
        parts = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=2 * m * p, max_size=2 * m * p)))
        gains = (parts[::2] + 1j * parts[1::2]).reshape(m, p)
        zero = np.array(data.draw(st.lists(st.booleans(), min_size=m * p, max_size=m * p)))
        gains[zero.reshape(m, p)] = 0.0
        if data.draw(st.booleans(), label="blocked entries at aod 0"):
            aods[gains == 0] = 0.0
        got = synthesize_channels(gains, aods, geom(n))
        want = batch_oracle(gains, aods, n)
        # Roundoff scales with the terms, not with their sum: a g and -g on
        # one angle, one in a shared slot and one in a varying slot, leave
        # ~1e-16 |g| where the oracle cancels exactly.
        terms = np.sqrt(n) * np.abs(gains).sum(axis=1)
        assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-12 * terms)
        np.testing.assert_array_equal(got[terms == 0], 0.0)


class TestSynthesizeChannel:
    def test_single_boresight_path(self):
        paths = [PathComponent(gain=1.0 + 0.0j, aod=0.0, aoa=0.0)]
        snap = synthesize_channel(paths, geom(4))
        np.testing.assert_array_equal(snap.coefficients, np.ones(4, dtype=complex))

    def test_destructive_superposition(self):
        g = 0.3 - 0.4j
        paths = [
            PathComponent(gain=g, aod=0.2, aoa=0.0),
            PathComponent(gain=-g, aod=0.2, aoa=0.0),
        ]
        snap = synthesize_channel(paths, geom(8))
        np.testing.assert_allclose(snap.coefficients, np.zeros(8), atol=1e-16, rtol=0)

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_opposite_gains_on_one_angle_cancel_exactly(self, n):
        rng = np.random.default_rng(n)
        for aod in EDGE_ANGLES + [0.2]:
            g = complex(*rng.normal(size=2))
            paths = [PathComponent(gain=g, aod=aod, aoa=0.0), PathComponent(gain=-g, aod=aod, aoa=0.0)]
            np.testing.assert_array_equal(synthesize_channel(paths, geom(n)).coefficients, np.zeros(n))

    def test_is_one_row_of_the_batched_kernel(self):
        # a path list is one row of path slots: the two agree bit for bit
        rng = np.random.default_rng(5)
        gains = rng.normal(size=15) + 1j * rng.normal(size=15)
        aods = rng.uniform(-np.pi / 2, np.pi / 2, size=15)
        paths = [PathComponent(gain=complex(g), aod=float(a), aoa=0.0) for g, a in zip(gains, aods)]
        batched = synthesize_channels(gains[None], aods[None], geom(128))[0]
        np.testing.assert_array_equal(synthesize_channel(paths, geom(128)).coefficients, batched)

    def test_matches_elementwise_summation_oracle(self):
        rng = np.random.default_rng(7)
        n = 32
        paths = [
            PathComponent(
                gain=complex(rng.normal(), rng.normal()),
                aod=rng.uniform(-np.pi / 2, np.pi / 2),
                aoa=rng.uniform(-np.pi / 2, np.pi / 2),
            )
            for _ in range(3)
        ]
        snap = synthesize_channel(paths, geom(n))
        np.testing.assert_allclose(
            snap.coefficients, term_by_term(paths, n), rtol=1e-12, atol=1e-15
        )

    def test_grid_snapshots_match_elementwise_summation_oracle(self):
        # the grid synthesizes in batches; check it against the same oracle
        scene = generate_scene(SceneParams(grid_spacing=0.5), seed=1)
        grid = build_channel_grid(scene, bs_ids=("rsu0", "mbs"))
        rng = np.random.default_rng(29)
        for idx in rng.choice(scene.grid.num_points, size=10, replace=False):
            for bs_id in grid.bs_ids:
                n = scene.station(bs_id).geometry.num_antennas
                expected = term_by_term(grid.paths_at(bs_id, int(idx)), n)
                err = np.linalg.norm(grid.snapshots[bs_id][idx] - expected)
                assert err <= 1e-12 * np.linalg.norm(expected)

    def test_linearity_in_path_lists(self):
        rng = np.random.default_rng(11)

        def random_paths(k):
            return [
                PathComponent(
                    gain=complex(rng.normal(), rng.normal()),
                    aod=rng.uniform(-np.pi / 2, np.pi / 2),
                    aoa=0.0,
                )
                for _ in range(k)
            ]

        a, b = random_paths(3), random_paths(4)
        combined = synthesize_channel(a + b, geom(16)).coefficients
        separate = (
            synthesize_channel(a, geom(16)).coefficients
            + synthesize_channel(b, geom(16)).coefficients
        )
        # identical up to fp64 summation-order roundoff
        np.testing.assert_allclose(combined, separate, rtol=1e-13, atol=1e-15)

    def test_empty_path_list_is_outage(self):
        with pytest.raises(OutageError):
            synthesize_channel([], geom(4))


class TestDftCodebook:
    def test_zero_frequency_codeword(self):
        cb = build_dft_codebook(256, 32)
        np.testing.assert_allclose(
            cb.matrix[:, 0], np.full(32, 1 / np.sqrt(32), dtype=complex), atol=1e-15, rtol=0
        )

    def test_all_codewords_unit_norm(self):
        cb = build_dft_codebook(256, 32)
        norms = np.linalg.norm(cb.matrix, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12, rtol=0)

    def test_four_point_dft_hand_written(self):
        cb = build_dft_codebook(4, 4)
        w = np.exp(-2j * np.pi / 4)  # = -j
        expected = np.array(
            [[w ** (i * x) for x in range(4)] for i in range(4)], dtype=complex
        ) / 2.0
        np.testing.assert_allclose(cb.matrix, expected, atol=1e-12, rtol=0)
        # spot-check one column against literal values
        np.testing.assert_allclose(
            cb.matrix[:, 1], np.array([1, -1j, -1, 1j]) / 2.0, atol=1e-12, rtol=0
        )

    def test_rejects_fewer_beams_than_antennas(self):
        with pytest.raises(ValueError):
            build_dft_codebook(16, 32)


def rss_oracle(h, f):
    """|h^H f|^2 summed element by element."""
    return abs(sum(np.conj(h[i]) * f[i] for i in range(len(h)))) ** 2


class TestReceivedSignalStrength:
    """The |h^H f|^2 that ``best_beams`` reports for its chosen codeword."""

    def test_matched_beam_gives_one(self):
        cb = build_dft_codebook(64, 16)
        # channel equal to the codeword: |f^H f|^2 = ||f||^4 = 1
        labels, rss = best_beams(cb.matrix[:, 9], cb)
        assert labels == 9
        assert rss == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_gives_zero(self):
        cb = build_dft_codebook(16, 16)
        # distinct columns of a square DFT matrix are exactly orthogonal, so
        # codeword 2 adds nothing to the score of codeword 5
        labels, rss = best_beams(cb.matrix[:, 2] + 3.0 * cb.matrix[:, 5], cb)
        assert labels == 5
        assert rss == pytest.approx(9.0, abs=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(5)
        cb = build_dft_codebook(32, 8)
        h = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
        labels, rss = best_beams(h, cb)
        for row, label, got in zip(h, labels, rss):
            assert got == pytest.approx(rss_oracle(row, cb.matrix[:, label]), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            optimal_beam(np.ones(4, dtype=complex), build_dft_codebook(8, 8))


class TestOptimalBeam:
    def test_matched_codeword_wins(self):
        cb = build_dft_codebook(256, 32)
        assert optimal_beam(2.5 * cb.matrix[:, 17], cb) == 17

    def test_boresight_steering_picks_codeword_zero(self):
        cb = build_dft_codebook(256, 32)
        assert optimal_beam(steering_vector(geom(32), 0.0), cb) == 0

    def test_matches_exhaustive_scan_oracle(self):
        rng = np.random.default_rng(13)
        cb = build_dft_codebook(32, 8)
        channels, oracle = [], []
        for _ in range(50):
            paths = [
                PathComponent(
                    gain=complex(rng.normal(), rng.normal()),
                    aod=rng.uniform(-np.pi / 2, np.pi / 2),
                    aoa=0.0,
                )
                for _ in range(2)
            ]
            h = synthesize_channel(paths, geom(8)).coefficients
            # independent exhaustive scan
            best, best_rss = 0, -1.0
            for x in range(cb.num_beams):
                rss = abs(np.sum(np.conj(h) * cb.matrix[:, x])) ** 2
                if rss > best_rss:
                    best, best_rss = x, rss
            assert optimal_beam(h, cb) == best
            channels.append(h)
            oracle.append((best, best_rss))
        # the batched search on a (5, 10, N) stack agrees with the scan
        labels, rss = best_beams(np.reshape(channels, (5, 10, 8)), cb)
        assert labels.ravel().tolist() == [b for b, _ in oracle]
        np.testing.assert_allclose(rss.ravel(), [r for _, r in oracle], rtol=1e-12)

    def test_batched_exact_ties_go_to_lowest_index(self):
        # codewords 2 and 3 repeat 0 and 1, so every score ties exactly
        dup = Codebook(matrix=np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=complex))
        labels, rss = best_beams(np.array([[1, 1], [0, 2j], [3, 0]]), dup)
        assert labels.tolist() == [0, 1, 0]
        assert rss.tolist() == [1.0, 4.0, 9.0]

    def test_genie_dominance(self):
        rng = np.random.default_rng(17)
        cb = build_dft_codebook(64, 16)
        for _ in range(25):
            h = rng.normal(size=16) + 1j * rng.normal(size=16)
            star = optimal_beam(h, cb)
            rss_star = rss_oracle(h, cb.matrix[:, star])
            for x in range(cb.num_beams):
                assert rss_star >= rss_oracle(h, cb.matrix[:, x])

    def test_zero_channel_is_outage(self):
        cb = build_dft_codebook(16, 8)
        with pytest.raises(OutageError):
            optimal_beam(np.zeros(8, dtype=complex), cb)

    @pytest.mark.parametrize(
        "h",
        [ChannelSnapshot(coefficients=np.ones(4, dtype=complex)), np.complex128(1.0),
         np.ones((4, 3), dtype=complex), np.ones((4, 4), dtype=complex)],
        ids=["snapshot", "scalar", "4x3", "4x4"],
    )
    def test_anything_but_one_n_vector_rejected(self, h):
        # (4, 3) and (4, 4) pass a check of the leading dimension alone
        with pytest.raises(ValueError, match="dimension mismatch"):
            optimal_beam(h, build_dft_codebook(8, 4))


class TestValidation:
    def test_codebook_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Codebook(matrix=np.ones((4, 8), dtype=complex))

    def test_snapshot_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ChannelSnapshot(coefficients=np.array([1.0, np.nan], dtype=complex))

    def test_path_component_angle_range(self):
        with pytest.raises(ValueError):
            PathComponent(gain=1.0 + 0j, aod=2.5, aoa=0.0)

    @pytest.mark.parametrize(
        "gain, aod, aoa",
        [(complex(np.nan, 0.0), 0.0, 0.0), (complex(0.0, np.inf), 0.0, 0.0),
         (1.0 + 0j, np.nan, 0.0), (1.0 + 0j, 0.0, np.inf), (1.0 + 0j, 0.0, -2.5)],
    )
    def test_path_component_rejects_non_finite_and_out_of_range(self, gain, aod, aoa):
        with pytest.raises(ValueError):
            PathComponent(gain=gain, aod=aod, aoa=aoa)

    def test_geometry_invariants(self):
        for bad in (0, 4.0, True):
            with pytest.raises(ValueError, match="num_antennas"):
                ArrayGeometry(num_antennas=bad)
        with pytest.raises(ValueError):
            ArrayGeometry(num_antennas=4, spacing_wavelengths=-0.5)
