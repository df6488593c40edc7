"""Spectral module tests: certified eigensystems, clustering, sup norms."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from catlab import arith, quantize, spectral
from catlab.arith import CatMatrix, CertificationError, quantum_period
from catlab.experiments import clustered_spectrum, process_map
from catlab.quantize import build_propagator
from catlab.spectral import (
    EigenCluster,
    SpectrumReport,
    cluster_eigenvalues,
    eigendecompose,
    projector,
    report_to_dict,
    supnorm_summary,
)
from conftest import (
    averaging_operator,
    blocked_bits_differ,
    dense_scalar_residual,
    gap_clusters,
    op_norm_1_inf,
    op_norm_2_inf,
    snapped_spectrum,
    table_snap,
)

A = CatMatrix(2, 3, 1, 2)
TRACE4_B3 = ((2, 3, 1, 2), (2, -3, -1, 2), (8, 3, -11, -4), (-4, 3, -11, 8))
# the four trace-4 maps at N=15 (n=6, outside the short-period regime),
# 71 and 265, and two trace-8 maps at their short-period moduli 71, 559
SCALAR_CASES = [(m, N) for m in TRACE4_B3 for N in (15, 71, 265)] + [
    (m, N) for m in ((4, 3, 5, 4), (-2, 3, -7, 10)) for N in (71, 559)
]


@pytest.fixture(scope="module")
def prop5():
    return build_propagator(A, 5)


@pytest.fixture(scope="module")
def clustered5(prop5):
    return cluster_eigenvalues(eigendecompose(prop5), n=3)


@pytest.fixture(scope="module")
def clustered71():
    prop = build_propagator(A, 71)
    return cluster_eigenvalues(eigendecompose(prop), n=7)


def summarize(M, n):
    return supnorm_summary(cluster_eigenvalues(eigendecompose(M), n))


def cluster_supnorms(report):
    return [cluster["supnorm"] for cluster in report_to_dict(report)["clusters"]]


def synthetic_report(values):
    values = np.asarray(values, dtype=np.complex128)
    order = np.argsort(np.mod(np.angle(values), 2 * np.pi), kind="stable")
    values = values[order]
    n = len(values)
    return SpectrumReport(
        N=n,
        eigenvalues=values,
        eigenvectors=np.eye(n, dtype=np.complex128),
        residuals=np.zeros(n),
    )


class TestEigendecompose:
    def test_identity(self):
        report = eigendecompose(np.eye(6))
        assert np.allclose(report.eigenvalues, 1.0)
        clustered = cluster_eigenvalues(report, n=1)
        assert len(clustered.clusters) == 1
        assert clustered.clusters[0].dim == 6
        assert clustered.global_phase == pytest.approx(0.0, abs=1e-12)

    def test_certified_residuals(self, prop5):
        report = eigendecompose(prop5)
        assert report.residuals.max() <= 1e-8 * math.sqrt(5)
        assert np.abs(np.abs(report.eigenvalues) - 1).max() <= 1e-8
        assert len(report.eigenvalues) == 5

    def test_sorted_by_phase(self, prop5):
        report = eigendecompose(prop5)
        phases = np.mod(np.angle(report.eigenvalues), 2 * np.pi)
        assert (np.diff(phases) >= 0).all()

    def test_orthonormal_vectors(self, prop5):
        report = eigendecompose(prop5)
        gram = report.eigenvectors.conj().T @ report.eigenvectors
        assert np.abs(gram - np.eye(5)).max() < 1e-12

    def test_eigenvalues_are_period_roots(self, prop5):
        # every eigenvalue cubed equals the same unit scalar
        report = eigendecompose(prop5)
        cubes = report.eigenvalues**3
        assert np.abs(cubes - cubes[0]).max() < 1e-10

    def test_rejects_nonunitary(self):
        match = r"^eigensolve at N=2: max \|modulus - 1\| 1\.0 exceeds 1e-08$"
        with pytest.raises(CertificationError, match=match):
            eigendecompose(np.diag([2.0, 0.5]))

    def test_residual_failure_names_n_value_and_bound(self):
        # a Jordan block: its Schur vectors are not eigenvectors
        match = r"^eigensolve at N=2: eigenpair residual 1\.0 exceeds 1\.4142135623730952e-08$"
        with pytest.raises(CertificationError, match=match):
            eigendecompose(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_empty_matrix(self):
        # every propagator has N >= 1
        with pytest.raises(ValueError, match="^expected a non-empty square matrix$"):
            eigendecompose(np.zeros((0, 0)))

    def test_rejects_non_finite_matrix(self):
        matrix = np.eye(3, dtype=np.complex128)
        matrix[1, 2] = complex(0.0, np.inf)
        with pytest.raises(ValueError, match="infs or NaNs"):
            eigendecompose(matrix)

    def test_zgees_failure_raises_linalg_error(self, prop5, failing_zgees):
        with pytest.raises(np.linalg.LinAlgError, match=r"^Schur form not found at N=5: zgees info 1$"):
            eigendecompose(prop5)

    def test_missing_lapack_extension_raises_import_error(self, monkeypatch, tmp_path):
        import scipy

        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        spectral._zgees.cache_clear()
        try:
            with pytest.raises(ImportError, match="_flapack is missing"):
                spectral._zgees()
        finally:
            spectral._zgees.cache_clear()


class TestBlockedProducts:
    def test_blocks_start_at_multiples_of_128_without_one_wide_tail(self):
        for n in (0, 1, 2, 127, 128, 129, 130, 256, 257, 258, 989):
            blocks = quantize._blocks(n)
            assert [i for b in blocks for i in range(n)[b]] == list(range(n))
            assert all(b.start % 128 == 0 for b in blocks)
            assert all(b.stop - b.start >= 2 for b in blocks) or n == 1

    def test_bits_match_full_products(self):
        # N across the block edges, the tie N of the scan maps and one
        # |b| = 45 map; compared on one BLAS thread in pool workers
        cases = [((2, 3, 1, 2), N) for N in (1, 3, 127, 129, 255, 257, 259, 385)]
        cases += [(m, N) for m in TRACE4_B3 for N in (15, 39, 65, 165, 195)]
        cases += [((26, 45, 15, 26), 259)]
        assert process_map(blocked_bits_differ, cases, 2) == [[]] * len(cases)


def _peak_footprint(call) -> float:
    """Peak of traced allocations during call(), in N x N complex arrays
    of the call's N; the caller's arrays made before it do not count."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        n = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / (16 * n * n)


class TestMemoryFootprint:
    # a build holds its result and one block's scratch; an eigensolve,
    # with the caller's matrix, three N x N arrays: the matrix, T and Z
    N = 401

    def test_build(self):
        assert _peak_footprint(lambda: build_propagator(A, self.N).N) <= 2.5

    def test_eigendecompose_with_matrix_held(self):
        eigendecompose(np.eye(2))  # the scipy import is not the footprint
        held = []

        def call():
            held.append(build_propagator(A, self.N))
            tracemalloc.reset_peak()
            return eigendecompose(held[0]).N

        assert _peak_footprint(call) <= 3.25


class TestClustering:
    def test_snap_reference(self, prop5, clustered5):
        assert len(clustered5.clusters) <= 3
        assert sum(c.dim for c in clustered5.clusters) == 5
        assert clustered5.global_phase is not None
        _, angle = dense_scalar_residual(prop5.entries, 3)
        assert angle == pytest.approx(clustered5.global_phase)

    def test_snap_multiplicity_bound(self, clustered71):
        # period 7 forces a cluster of dimension >= ceil(71/7) = 11
        assert max(c.dim for c in clustered71.clusters) >= 11
        assert len(clustered71.clusters) <= 7

    def test_scalar_matrix_single_cluster(self):
        theta = 0.7
        report = eigendecompose(np.exp(1j * theta) * np.eye(4))
        clustered = cluster_eigenvalues(report, n=1)
        assert len(clustered.clusters) == 1
        assert clustered.global_phase == pytest.approx(theta)

    # test_gap_*: the phase-gap oracle that cluster_eigenvalues is
    # checked against in TestClusteringOracles
    def test_gap_merges_near_degenerate_pair(self):
        report = synthetic_report([1.0, np.exp(1j * spectral.CLUSTER_TOL / 10)])
        clustered = gap_clusters(report)
        assert len(clustered.clusters) == 1
        assert clustered.clusters[0].dim == 2
        assert clustered.global_phase is None

    def test_gap_keeps_simple_spectrum_separate(self):
        values = np.exp(2j * np.pi * np.arange(5) / 5)
        clustered = gap_clusters(synthetic_report(values))
        assert len(clustered.clusters) == 5
        assert all(c.dim == 1 for c in clustered.clusters)

    def test_gap_wraps_around_zero_phase(self):
        delta = 1e-9
        values = [np.exp(1j * delta), np.exp(-1j * delta), 1j]
        clustered = gap_clusters(synthetic_report(values))
        assert sorted(c.dim for c in clustered.clusters) == [1, 2]

    def test_ambiguous_snap_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "CLUSTER_TOL", 1.1)
        values = np.exp(2j * np.pi * np.arange(3) / 3)
        report = synthetic_report(values)
        # the bound min(1.1, 2*pi/3 - 2.2) is negative: roots 2*pi/3 apart
        # cannot be told apart at this tolerance
        match = r"^clustering at N=3: largest snap distance \S+ exceeds -0\.10560\d+$"
        with pytest.raises(CertificationError, match=match):
            cluster_eigenvalues(report, n=3)

    @pytest.fixture
    def off_root5(self, prop5):
        """The N=5 eigensystem with eigenvalue 2 turned 1e-6 off its root."""
        report = eigendecompose(prop5)
        values = report.eigenvalues.copy()
        values[2] *= np.exp(10j * spectral.CLUSTER_TOL)
        return replace(report, eigenvalues=values)

    def test_snap_rejects_eigenvalue_off_its_root(self, off_root5):
        # its cube lies 3e-6 from the others, so the scalar bound fires first
        match = (
            r"^clustering at N=5: off-scalar bound of M\^3"
            r" (2\.9999\d*e-06|3\.0000\d*e-06) exceeds 1e-07$"
        )
        with pytest.raises(CertificationError, match=match):
            cluster_eigenvalues(off_root5, n=3)

    def test_snap_distance_rejects_eigenvalue_off_its_root(self, off_root5, monkeypatch):
        # with the scalar bound out of the way, the snap distance check
        # alone rejects the eigenvalue 1e-6 from its root, to rounding
        monkeypatch.setattr(spectral, "SCALAR_TOL", 1.0)
        match = (
            r"^clustering at N=5: largest snap distance"
            r" (9\.9999\d*e-07|1\.0000\d*e-06) exceeds 1e-07$"
        )
        with pytest.raises(CertificationError, match=match):
            cluster_eigenvalues(off_root5, n=3)

    def test_snap_rejects_wrong_period(self, prop5):
        # N=5 has quantum period 3: the dense M^2 is not scalar either
        assert dense_scalar_residual(prop5.entries, 2)[0] > spectral.SCALAR_TOL
        report = eigendecompose(prop5)
        match = r"^clustering at N=5: off-scalar bound of M\^2 \S+ exceeds 1e-07$"
        with pytest.raises(CertificationError, match=match):
            cluster_eigenvalues(report, n=2)

    def test_snap_rejects_scalar_power_off_the_unit_circle(self):
        report = synthetic_report(0.5 * np.ones(3))
        match = r"^clustering at N=3: \|\|lam_0\^1\| - 1\| 0\.5 exceeds 1e-07$"
        with pytest.raises(CertificationError, match=match):
            cluster_eigenvalues(report, n=1)

    @pytest.mark.parametrize("entries, N", SCALAR_CASES)
    def test_scalar_bound_dominates_dense_residual(self, monkeypatch, entries, N):
        certified = {}

        def recording(stage, dim, check, value, bound):
            certified[check] = value
            arith.certify(stage, dim, check, value, bound)

        monkeypatch.setattr(spectral, "certify", recording)
        matrix = CatMatrix(*entries)
        n = quantum_period(matrix, N).n_N
        prop = build_propagator(matrix, N)
        clustered = cluster_eigenvalues(eigendecompose(prop), n)
        residual, angle = dense_scalar_residual(prop.entries, n)
        assert residual <= certified["off-scalar bound of M^%d" % n] <= spectral.SCALAR_TOL
        gap = (clustered.global_phase - angle) % (2 * np.pi)
        assert min(gap, 2 * np.pi - gap) <= 1e-12

    @pytest.mark.parametrize("phi", [1e-16, -1e-16])
    def test_root_at_phase_zero_is_reported_as_zero(self, phi):
        # the certified phase keeps the sign of phi; without the phase-0
        # rule a negative one puts the k=0 root at 2*pi, last in order
        values = np.exp(1j * (phi + 2 * np.pi * np.array([0, 0, 1, 2, 2])) / 3)
        clustered = cluster_eigenvalues(synthetic_report(values), n=3)
        assert np.sign(clustered.global_phase) == np.sign(phi)
        assert clustered.clusters[0].phase == 0.0
        assert [c.dim for c in clustered.clusters] == [2, 1, 2]


# (map, N values) swept against the clustering oracles; the odd N of
# (2, 3, 1, 2) past 1 are in its first sweep
ORACLE_SWEEPS = [(m, range(3, 202, 2)) for m in TRACE4_B3 + ((4, 3, 5, 4),)] + [
    ((2, 3, 1, 2), (1,)),
    ((-2, 3, 1, -2), (71,)),
]
# explicit ids keep the names the sweeps had when a third field allowed
# even N, True only for the (2, 3, 1, 2) sweep at index 5
ORACLE_SWEEP_IDS = ["entries%d-values%d-%s" % (i, i, i == 5) for i in range(len(ORACLE_SWEEPS))]


class TestClusteringOracles:
    @pytest.mark.parametrize("entries, values", ORACLE_SWEEPS, ids=ORACLE_SWEEP_IDS)
    def test_snap_matches_gap_and_table_oracles(self, entries, values):
        cases = [(entries, N) for N in values]
        for record, report, certified_snap in process_map(snapped_spectrum, cases, 2):
            N = record.N
            # gap oracle: the same member sets, at phases within CLUSTER_TOL
            gap_phase = {frozenset(c.indices): c.phase for c in gap_clusters(report).clusters}
            assert {frozenset(c.indices) for c in report.clusters} == set(gap_phase), N
            for cluster in report.clusters:
                turn = (cluster.phase - gap_phase[frozenset(cluster.indices)]) % (2 * np.pi)
                assert min(turn, 2 * np.pi - turn) <= spectral.CLUSTER_TOL, N

            # table oracle: the same nearest root for every eigenvalue and
            # the same largest snap distance, to the bit
            n = record.n_N
            phases = np.mod(np.angle(report.eigenvalues), 2 * np.pi)
            nearest, snap = table_snap(phases, report.global_phase, n)
            assert certified_snap == snap, N
            roots = np.mod((report.global_phase + 2 * np.pi * np.arange(n)) / n, 2 * np.pi)
            for cluster in report.clusters:
                ks = set(nearest[list(cluster.indices)].tolist())
                assert len(ks) == 1, N
                root = roots[ks.pop()]
                assert cluster.phase == root or (
                    cluster.phase == 0.0 and min(root, 2 * np.pi - root) < spectral.CLUSTER_TOL
                ), N


class TestProjectors:
    def test_invariants(self, clustered71):
        for cid, cluster in enumerate(clustered71.clusters):
            basis = projector(clustered71, cid)
            P = basis @ basis.conj().T
            n = clustered71.N
            assert np.abs(P @ P - P).max() <= 1e-9 * n
            assert np.abs(P.conj().T - P).max() <= 1e-12 * n
            assert np.trace(P).real == pytest.approx(cluster.dim, abs=1e-8)
            gram = basis.conj().T @ basis
            assert np.abs(gram - np.eye(cluster.dim)).max() <= 1e-12

    def test_full_space_projector(self):
        report = cluster_eigenvalues(eigendecompose(np.eye(4)), n=1)
        result = supnorm_summary(report)
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert abs(np.abs(result.witness).max() - 1.0) < 1e-12
        assert result.witness_index == 0

    def test_uniform_rank_one_projector(self):
        # eigenvectors are the columns of the unitary DFT, written in
        # exact entries: every rank-one projector has all row norms
        # 1/sqrt(n), so every tie is exact
        n = 4
        k = np.arange(n)
        dft = np.array([1, 1j, -1, -1j])[np.outer(k, k) % n] / math.sqrt(n)
        report = replace(synthetic_report(np.exp(2j * np.pi * k / n)), eigenvectors=dft)
        result = supnorm_summary(cluster_eigenvalues(report, n))
        assert result.value == pytest.approx(1 / math.sqrt(n), abs=1e-12)
        assert result.witness_index == 0
        assert np.allclose(np.abs(result.witness), 1 / math.sqrt(n))

    def test_empty_basis_rejected(self, clustered5):
        report = replace(clustered5, clusters=(EigenCluster(phase=0.0, indices=()),))
        with pytest.raises(ValueError, match="empty"):
            projector(report, 0)

    def test_trace_pigeonhole(self, clustered5, clustered71):
        for report in (clustered5, clustered71):
            for cluster, value in zip(report.clusters, cluster_supnorms(report)):
                assert value**2 >= cluster.dim / report.N - 1e-12

    def test_witness_is_unit_and_attains(self, clustered5):
        result = supnorm_summary(clustered5)
        assert np.linalg.norm(result.witness) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(result.witness).max() == pytest.approx(result.value, abs=1e-12)

    def test_singleton_cluster_equals_vector_supnorm(self):
        # period 8 at N=7: snapping to the 8th roots keeps all
        # eigenvalues simple
        prop = build_propagator(A, 7)
        record = quantum_period(A, 7)
        assert record.n_N == 8
        report = cluster_eigenvalues(eigendecompose(prop), n=record.n_N)
        assert all(c.dim == 1 for c in report.clusters)
        for cluster, value in zip(report.clusters, cluster_supnorms(report)):
            vector = report.eigenvectors[:, cluster.indices[0]]
            assert value == pytest.approx(float(np.abs(vector).max()), abs=1e-12)


class TestSupnormSummary:
    def test_dimension_one(self):
        result = summarize(np.eye(1), n=1)
        assert result.value == pytest.approx(1.0)

    def test_random_search_cannot_beat_projector(self, clustered5):
        rng = np.random.default_rng(11)
        result = supnorm_summary(clustered5)
        best = 0.0
        for cid, cluster in enumerate(clustered5.clusters):
            basis = projector(clustered5, cid)
            z = rng.normal(size=(2000, cluster.dim, 2)) @ np.array([1, 1j])
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            samples = np.abs(z @ basis.T).max()
            best = max(best, float(samples))
        assert result.value >= best - 1e-9
        assert result.value - best < 5e-2

    def test_phase_invariance(self, prop5):
        base = summarize(prop5.entries, n=3)
        rotated = summarize(np.exp(0.37j) * prop5.entries, n=3)
        assert rotated.value == pytest.approx(base.value, abs=1e-10)
        assert rotated.cluster_dim == base.cluster_dim
        assert rotated.witness_index == base.witness_index

    @pytest.mark.parametrize("turn, first_dim", [(0.0, 2), (0.6, 3)])
    def test_first_cluster_wins_exact_tie(self, turn, first_dim):
        # eigenvectors are coordinate vectors, so every cluster's sup
        # norm is exactly 1; the first cluster in phase order must win
        values = np.exp(2j * np.pi * turn) * np.array([1, 1, 1j, -1, -1, -1])
        report = cluster_eigenvalues(synthetic_report(values), 4)
        assert cluster_supnorms(report) == [1.0] * 3
        result = supnorm_summary(report)
        assert result.cluster_id == 0
        assert result.cluster_dim == first_dim
        assert result.witness_index == report.clusters[0].indices[0]

    @pytest.mark.parametrize(
        "entries, N",
        [
            ((2, 3, 1, 2), 7),
            ((2, 3, 1, 2), 71),
            ((2, 3, 1, 2), 195),
            ((2, 3, 1, 2), 265),
            # negative trace: no lambda, but a quantum period all the same
            ((-2, 3, 1, -2), 71),
            ((-2, 3, 1, -2), 73),
        ],
    )
    def test_witness_is_eigenvector(self, entries, N):
        # profile prints the witness: it must lie in the winning
        # eigenspace, at short and long quantum periods alike
        _, report = clustered_spectrum(CatMatrix(*entries), N)
        assert report.global_phase is not None
        result = supnorm_summary(report)
        mu = np.exp(1j * report.clusters[result.cluster_id].phase)
        w = result.witness
        matrix = build_propagator(CatMatrix(*entries), N).entries
        assert np.linalg.norm(matrix @ w - mu * w) <= 1e-10

    def test_unclustered_report_rejected(self, prop5):
        with pytest.raises(ValueError):
            supnorm_summary(eigendecompose(prop5))


class TestOperatorNorms:
    def test_identity(self):
        assert op_norm_1_inf(np.eye(3)) == 1.0

    def test_max_entry(self):
        X = np.array([[1, -2j], [3 + 4j, 0.5]])
        assert op_norm_1_inf(X) == pytest.approx(5.0)

    def test_row_norm(self):
        X = np.array([[3.0, 4.0], [1.0, 0.0]])
        assert op_norm_2_inf(X) == pytest.approx(5.0)

    def test_propagator_entry_bounds(self):
        prop = build_propagator(A, 71)
        assert op_norm_1_inf(prop.entries) <= math.sqrt(3 / 71) + 1e-12
        squared = prop.entries @ prop.entries
        assert op_norm_1_inf(squared) <= math.sqrt(12 / 71) + 1e-12


class TestAveragingOperator:
    def test_window_one_is_identity(self, prop5):
        assert np.allclose(averaging_operator(prop5, 1.0, 1), np.eye(5))

    def test_reproduces_eigenvectors(self):
        prop = build_propagator(A, 19)
        report = eigendecompose(prop)
        for i in (0, 7, 18):
            mu = report.eigenvalues[i]
            u = report.eigenvectors[:, i]
            B = averaging_operator(prop, mu, 7)
            assert np.linalg.norm(B @ u - u) <= 1e-8

    def test_norm_identity_and_normality(self):
        prop = build_propagator(A, 19)
        mu = eigendecompose(prop).eigenvalues[3]
        B = averaging_operator(prop, mu, 5)
        lhs = op_norm_2_inf(B) ** 2
        rhs = op_norm_1_inf(B @ B.conj().T)
        assert lhs == pytest.approx(rhs, abs=1e-8)
        commutator = B.conj().T @ B - B @ B.conj().T
        assert np.abs(commutator).max() < 1e-12

    @pytest.mark.parametrize("T", [2, 5])
    def test_rows_bound_every_eigenfunction(self, T):
        prop = build_propagator(A, 19)
        report = eigendecompose(prop)
        for i in range(19):
            mu = report.eigenvalues[i]
            u = report.eigenvectors[:, i]
            B = averaging_operator(prop, mu, T)
            assert np.abs(u).max() <= op_norm_2_inf(B) + 1e-8

    def test_rejects_bad_arguments(self, prop5):
        with pytest.raises(ValueError):
            averaging_operator(prop5, 1.0, 0)
        with pytest.raises(ValueError):
            averaging_operator(prop5, 1.1, 3)


class TestSerialization:
    def test_schema(self, clustered5):
        payload = report_to_dict(clustered5)
        assert set(payload) == {
            "N",
            "eigenvalues",
            "clusters",
            "global_phase",
            "residual_max",
        }
        assert payload["N"] == 5
        assert len(payload["eigenvalues"]) == 5
        assert all(len(pair) == 2 for pair in payload["eigenvalues"])
        total = sum(c["dim"] for c in payload["clusters"])
        assert total == 5
        for cluster in payload["clusters"]:
            assert set(cluster) == {"phase", "indices", "dim", "supnorm"}
            assert cluster["supnorm"] > 0
        import json

        assert json.dumps(payload)
