import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import sphere_laplacian_s2
from weakmodel.errors import (GridTooCoarse, IndexOutOfRange, MalformedArtifact,
                              UnsupportedDimension)
from weakmodel.spectrum import (BoundaryData, CoefficientTable, RoundSphere,
                                eigen_round_sphere, eigenfunction_eval,
                                load_coefficients_json, multiplicity,
                                project_boundary, sphere_quadrature,
                                sup_norm_bound)


def test_eigenvalues_and_multiplicities():
    mode = eigen_round_sphere(2, 3)
    assert mode.lambda_sq == 9.0 and mode.multiplicity == 2
    mode = eigen_round_sphere(3, 2)
    assert mode.lambda_sq == 6.0 and mode.multiplicity == 5
    mode = eigen_round_sphere(7, 0)
    assert mode.lambda_sq == 0.0 and mode.multiplicity == 1
    assert eigen_round_sphere(7, 2).multiplicity == 27
    assert eigen_round_sphere(2, 0).multiplicity == 1
    assert eigen_round_sphere(3, 5).multiplicity == 11


def test_multiplicity_is_the_dimension_of_the_harmonics_at_every_n():
    # C(m+n-1, n-1) - C(m+n-3, n-1), in the closed forms at n = 4 and 5
    for m in range(9):
        assert multiplicity(4, m) == (m + 1) ** 2
        assert multiplicity(5, m) == (m + 1) * (m + 2) * (2 * m + 3) // 6
    # at n = 2 and 3, the number of eigenfunctions eigenfunction_eval indexes
    for n, omega in [(2, 0.3), (3, (0.3, 0.4))]:
        for m in range(9):
            for k in range(multiplicity(n, m)):
                assert np.isfinite(eigenfunction_eval(n, m, k, omega))
            with pytest.raises(IndexOutOfRange):
                eigenfunction_eval(n, m, multiplicity(n, m), omega)
    # eigenfunctions at other n are refused, whatever m
    for m in (0, 1):
        with pytest.raises(UnsupportedDimension, match=r"n in \{2, 3\}, got n=4"):
            eigenfunction_eval(4, m, 0, 0.0)


def test_eigenvalue_oracle_discrete_laplacian():
    # degree-2 spherical harmonics reproduce lambda^2 = 6 under the FD stencil
    colat = np.linspace(0.0, math.pi, 181)
    lon = np.linspace(0.0, 2 * math.pi, 360, endpoint=False)
    cc, ll = np.meshgrid(colat, lon, indexing="ij")
    F = eigenfunction_eval(3, 2, 1, (cc, ll))
    lap = sphere_laplacian_s2(F, colat, lon)
    interior = slice(20, 161)
    lam_est = -lap[interior] / F[1:-1][interior]
    mask = np.abs(F[1:-1][interior]) > 0.1
    assert_allclose(np.median(lam_est[mask]), 6.0, atol=1e-3)


def test_eigenfunction_normalization_values():
    # frozen from the quadrature normalization oracle below
    assert_allclose(eigenfunction_eval(2, 0, 0, 0.37), 0.3989422804014327,
                    rtol=1e-12)
    assert_allclose(eigenfunction_eval(2, 1, 0, 0.0), 0.5641895835477563,
                    rtol=1e-12)
    north = (0.0, 0.0)
    assert_allclose(eigenfunction_eval(3, 1, 0, north), 0.4886025119029199,
                    rtol=1e-12)


@pytest.mark.parametrize("n,m,k", [(2, 0, 0), (2, 1, 0), (2, 4, 1),
                                   (3, 0, 0), (3, 1, 0), (3, 3, 4)])
def test_normalization_integral_oracle(n, m, k):
    quad = sphere_quadrature(n, max(m + 2, 4))
    vals = eigenfunction_eval(n, m, k, quad.unpack())
    assert_allclose(float(np.dot(quad.weights, vals ** 2)), 1.0, rtol=1e-12)


@pytest.mark.parametrize("n,M", [(2, 16), (3, 8)])
def test_gram_identity(n, M):
    quad = sphere_quadrature(n, M)
    omega = quad.unpack()
    basis = []
    for m in range(M + 1):
        for k in range(multiplicity(n, m)):
            basis.append(eigenfunction_eval(n, m, k, omega))
    B = np.array(basis)
    gram = (B * quad.weights) @ B.T
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-10


def test_discrete_eigenrelation_one_degree_grid():
    # 1-degree lat-lon grid, relative L2 error below 1e-2 for all m <= 4
    colat = np.linspace(0.0, math.pi, 181)
    lon = np.linspace(0.0, 2 * math.pi, 360, endpoint=False)
    cc, ll = np.meshgrid(colat, lon, indexing="ij")
    for m in (1, 2, 3, 4):
        lam2 = m * (m + 1)
        for k in (0, min(1, 2 * m)):
            F = eigenfunction_eval(3, m, k, (cc, ll))
            lap = sphere_laplacian_s2(F, colat, lon)
            # exclude pole-adjacent rows where cot blows up the stencil error
            sl = slice(4, 173)
            err = np.linalg.norm(-lap[sl] - lam2 * F[1:-1][sl])
            assert err / np.linalg.norm(lam2 * F[1:-1][sl]) < 1e-2


def test_projection_orthonormality():
    f = BoundaryData.from_function(2, 4, lambda th: eigenfunction_eval(2, 1, 0, th))
    table = project_boundary(f, 4)
    assert_allclose(table.get(1, 0), 1.0, atol=1e-12)
    others = [c for (m, k), c in table.items() if (m, k) != (1, 0)]
    assert np.max(np.abs(others)) < 1e-12


def test_projection_constant():
    f = BoundaryData.from_function(2, 2, lambda th: np.ones_like(th))
    table = project_boundary(f, 2)
    assert_allclose(table.get(0, 0), math.sqrt(2 * math.pi), rtol=1e-12)
    assert abs(table.get(1, 0)) < 1e-12 and abs(table.get(2, 1)) < 1e-12


def test_projection_cos_combination():
    f = BoundaryData.from_function(2, 4, lambda th: 3 * np.cos(th) - 2)
    table = project_boundary(f, 4)
    assert_allclose(table.get(0, 0), -2 * math.sqrt(2 * math.pi), rtol=1e-12)
    assert_allclose(table.get(1, 0), 3 * math.sqrt(math.pi), rtol=1e-12)
    rest = [c for (m, k), c in table.items() if (m, k) not in ((0, 0), (1, 0))]
    assert np.max(np.abs(rest)) < 1e-12


@pytest.mark.parametrize("n,M", [(2, 6), (3, 4)])
def test_project_synthesize_roundtrip(n, M):
    rng = np.random.default_rng(7)
    table = CoefficientTable(n)
    for m in range(M + 1):
        for k in range(multiplicity(n, m)):
            table.set(m, k, float(rng.normal()))
    quad = sphere_quadrature(n, M)
    samples = sum(c * eigenfunction_eval(n, m, k, quad.unpack())
                  for (m, k), c in table.items())
    back = project_boundary(BoundaryData.from_samples(n, M, samples), M)
    for (m, k), c in table.items():
        assert_allclose(back.get(m, k), c, atol=1e-10)


def test_error_paths():
    with pytest.raises(UnsupportedDimension):
        eigenfunction_eval(4, 1, 0, 0.0)
    with pytest.raises(IndexOutOfRange):
        eigenfunction_eval(2, 1, 2, 0.0)
    with pytest.raises(IndexOutOfRange):
        eigenfunction_eval(3, 2, 5, (0.3, 0.4))
    f = BoundaryData.from_function(2, 3, np.cos)
    with pytest.raises(GridTooCoarse):
        project_boundary(f, 5)
    with pytest.raises(UnsupportedDimension, match="^need n >= 2, got 1$"):
        eigen_round_sphere(1, 0)
    with pytest.raises(IndexOutOfRange, match="^need m >= 0, got -1$"):
        eigen_round_sphere(2, -1)
    with pytest.raises(GridTooCoarse, match="^band limit must be >= 0$"):
        sphere_quadrature(2, -1)
    # one refusal of the dimension, by the round sphere's basis and n
    for refused in (lambda: sphere_quadrature(4, 2), lambda: sup_norm_bound(4, 0),
                    lambda: eigenfunction_eval(4, 1, 0, 0.0), lambda: RoundSphere(4)):
        with pytest.raises(UnsupportedDimension, match=r"^the round sphere's basis is "
                                                       r"built for n in \{2, 3\}, got n=4$"):
            refused()
    with pytest.raises(GridTooCoarse, match=re.escape(
            "expected 16 samples on the (n=2, M=3) grid, got (15,)")):
        BoundaryData.from_samples(2, 3, np.ones(15))


def test_boundary_csv_roundtrip(tmp_path):
    quad = sphere_quadrature(2, 3)
    vals = np.cos(quad.points) + 0.25
    path = tmp_path / "bc2.csv"
    with open(path, "w") as fh:
        fh.write("theta,f\n")
        for th, v in zip(quad.points, vals):
            fh.write(f"{th:.17g},{v:.17g}\n")
    data = BoundaryData.from_csv(path, 2, 3)
    assert_allclose(data.samples, vals)

    quad3 = sphere_quadrature(3, 2)
    vals3 = np.cos(quad3.points[:, 0])
    path3 = tmp_path / "bc3.csv"
    with open(path3, "w") as fh:
        fh.write("colat,lon,f\n")
        for (c0, l0), v in zip(quad3.points, vals3):
            fh.write(f"{c0:.17g},{l0:.17g},{v:.17g}\n")
    data3 = BoundaryData.from_csv(path3, 3, 2)
    assert_allclose(data3.samples, vals3)

    # wrong grid is rejected
    with open(path, "w") as fh:
        fh.write("theta,f\n0.0,1.0\n0.5,1.0\n")
    with pytest.raises(GridTooCoarse):
        BoundaryData.from_csv(path, 2, 3)


def test_coefficient_table_refuses_negative_index_and_non_finite_value():
    table = CoefficientTable(2)
    for m, k in ((-1, 0), (1, -1)):
        with pytest.raises(IndexOutOfRange,
                           match=rf"^coefficient index \(m, k\) = \({m}, {k}\) "
                                 "is negative$"):
            table.set(m, k, 1.0)
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(MalformedArtifact,
                           match=re.escape(f"coefficient c_{{1,0}} is {c}, "
                                           "not a finite number")):
            table.set(1, 0, c)
    with pytest.raises(MalformedArtifact, match=re.escape("c_{0,0} is nan")):
        CoefficientTable(2, {(0, 0): math.nan})
    for n, m, k, top in ((2, 0, 1, 0), (2, 3, 2, 1), (3, 2, 5, 4)):
        with pytest.raises(IndexOutOfRange, match=re.escape(
                f"coefficient index (m, k) = ({m}, {k}) has k outside 0..{top} "
                f"for n={n}")):
            CoefficientTable(n).set(m, k, 1.0)
    assert table.entries == {}


@pytest.mark.parametrize("n,node", [(2, "theta = 2.0944"),
                                    (3, "colat, lon = 2.6083, 3.14159")])
def test_boundary_samples_that_are_not_finite_are_refused_by_node(n, node):
    quad = sphere_quadrature(n, 2)
    samples = np.ones(len(quad.weights))
    samples[4] = math.nan
    message = rf"^boundary sample 4 \({node}\) is nan, not a finite number$"
    with pytest.raises(MalformedArtifact, match=message):
        BoundaryData.from_samples(n, 2, samples)
    with pytest.raises(MalformedArtifact, match=message):
        BoundaryData.from_function(n, 2, lambda *omega: samples)
    with pytest.raises(MalformedArtifact,
                       match="^boundary sample 0 is inf, not a finite number$"):
        BoundaryData.from_function(n, 2, lambda *omega: math.inf)
    # a scalar is still taken as the same value at every node
    f = BoundaryData.from_function(n, 2, lambda *omega: 2.0)
    assert_allclose(project_boundary(f, 2).get(0, 0),
                    2.0 * math.sqrt(2 * math.pi if n == 2 else 4 * math.pi))


def test_coefficients_json_roundtrip(tmp_path):
    table = CoefficientTable(2, {(0, 0): 1.5, (2, 1): -0.125})
    path = tmp_path / "coeffs.json"
    with open(path, "w") as fh:
        json.dump(table.to_json_obj(), fh)
    back = load_coefficients_json(path, 2)
    assert back == table
    obj = json.loads(path.read_text())
    assert obj == [{"m": 0, "k": 0, "c": 1.5}, {"m": 2, "k": 1, "c": -0.125}]


@pytest.mark.parametrize("text,message", [
    ('[{"k": 0, "c": 1.0}]', "a coefficient record has no 'm' key"),
    ('{"m": 0, "k": 0, "c": 1.0}', "not a list of m, k, c records"),
    ('[{"m": 0, "k": 0, "c": "x"}]', 'coefficient c = "x" is not a number'),
    ('[{"m": 0, "k": 0, "c": 1' + "0" * 400 + '}]',
     "not a list of m, k, c records: int too large to convert to float"),
], ids=["no_m", "not_a_list", "text", "huge_c"])
def test_malformed_coefficients_json_is_refused_by_name(tmp_path, text, message):
    path = tmp_path / "coeffs.json"
    path.write_text(text)
    with pytest.raises(MalformedArtifact, match=f"^{path}: {message}"):
        load_coefficients_json(path, 2)


@pytest.mark.parametrize("n,text,message", [
    (2, "angle,f\n0.0,1.0\n", ": expected CSV header theta,f, got ['angle', 'f']"),
    (3, "theta,f\n0.0,1.0\n", ": expected CSV header colat,lon,f, got ['theta', 'f']"),
    (2, "theta,f\n0.0,1.0\n0.5\n", ", line 3: f is missing"),
    (2, "theta,f\n0.0,abc\n", ", line 2: f is 'abc', not a finite number"),
], ids=["n2_header", "n3_header", "short_row", "text"])
def test_malformed_boundary_csv_is_refused_by_name(tmp_path, n, text, message):
    # a short row was refused as "float() argument must be a string or a
    # real number, not 'NoneType'", and a text cell by no line
    path = tmp_path / "bc.csv"
    path.write_text(text)
    with pytest.raises(MalformedArtifact, match=f"^{re.escape(str(path) + message)}$"):
        BoundaryData.from_csv(path, n, 2)
