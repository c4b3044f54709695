import re
import struct
import zlib

import numpy as np
import pytest

from regsob.errors import (
    ChecksumFailure,
    CorruptHeader,
    GridMismatch,
    InvalidGrading,
    InvalidParams,
    UnknownKind,
    VersionMismatch,
)
from regsob.field import (
    attach_tail_model,
    dilate_exact,
    eval_u,
    eval_vt,
    load_field,
    make_grid,
    resample,
    save_field,
    synthesize_profile,
)
from regsob.io_container import read_container, write_container
from regsob.kernel import KernelParams, build_kernel_table, load_table, save_table


def test_uniform_grid_nodes():
    g = make_grid(3, 1.0, 10, 10, (1.0, 1.0))
    assert np.allclose(g.r_nodes, np.arange(11) / 10, atol=1e-15)
    assert np.allclose(g.z_nodes, np.arange(11) / 10, atol=1e-15)


def test_grading_doubles_boundary_density():
    g1 = make_grid(4, 1.0, 16, 16, (1.0, 1.0))
    g2 = make_grid(4, 1.0, 16, 16, (1.0, 2.0))
    thin = 0.1
    assert np.sum(g2.z_nodes < thin) >= 2 * np.sum(g1.z_nodes < thin)


def test_invalid_grading_rejected():
    with pytest.raises(InvalidGrading):
        make_grid(4, 1.0, 8, 8, (0.5, 1.0))


@pytest.mark.parametrize("grading", [(np.nan, 2.0), (2.0, np.nan), (np.inf, 1.0)])
def test_non_finite_grading_rejected(grading):
    with pytest.raises(InvalidGrading, match="finite"):
        make_grid(4, 1.0, 8, 8, grading)


@pytest.mark.parametrize("grading", [(2.0,), (2.0, 2.0, 2.0), 2.0], ids=repr)
def test_grading_must_be_two_numbers(grading):
    # these used to fail untyped, unpacking the grading into two exponents
    with pytest.raises(InvalidGrading, match=re.escape(repr(grading))):
        make_grid(4, 1.0, 8, 8, grading)


@pytest.mark.parametrize("R_max", [np.nan, np.inf, 0.0, -1.0])
def test_bad_grid_radius_rejected(R_max):
    with pytest.raises(InvalidParams, match="R_max must be finite"):
        make_grid(4, R_max, 8, 8)


@pytest.mark.parametrize("n", [1, 0, 2.5, 3.0, True, np.nan, "4"])
def test_bad_dimension_rejected(n):
    with pytest.raises(InvalidParams, match="dimension n must be an integer >= 2"):
        make_grid(n, 4.0, 6, 6)


def test_numpy_integer_dimension_accepted():
    assert make_grid(np.int64(3), 4.0, 6, 6).n == 3


@pytest.mark.parametrize("N", [3, 8.0, 9.7, True, np.nan])
def test_bad_cell_count_rejected(N):
    with pytest.raises(InvalidParams, match="integer number >= 4"):
        make_grid(4, 1.0, N, 8)
    with pytest.raises(InvalidParams, match="integer number >= 4"):
        make_grid(4, 1.0, 8, N)


def test_eval_exact_at_nodes_and_zero_boundary():
    g = make_grid(4, 2.0, 8, 8, (1.0, 1.0))
    f = synthesize_profile("envelope", g, 0.75)
    i, j = 3, 5
    r, z = g.r_nodes[i], g.z_nodes[j]
    assert eval_u(f, r, z) == pytest.approx(
        z ** 0.5 * f.regular_values[i, j], rel=1e-14
    )
    assert eval_u(f, 0.5, 0.0) == 0.0


def test_eval_constant_regular_factor_midpoint():
    g = make_grid(4, 2.0, 8, 8, (2.0, 2.0))
    f = synthesize_profile("envelope", g, 0.75).with_values(
        np.ones_like(g.r_nodes[:, None] * g.z_nodes[None, :])
    )
    r = 0.5 * (g.r_nodes[2] + g.r_nodes[3])
    z = 0.5 * (g.z_nodes[4] + g.z_nodes[5])
    assert eval_u(f, r, z) == pytest.approx(z ** 0.5, rel=1e-14)


def test_envelope_profile_value():
    g = make_grid(4, 2.0, 8, 8, (1.0, 1.0))
    f = synthesize_profile("envelope", g, 0.75)
    # z = 1 is a node of this uniform grid
    assert eval_u(f, 0.0, 1.0) == pytest.approx(2 ** -1.75, rel=1e-14)


def test_compact_bump_support():
    g = make_grid(4, 2.0, 16, 16, (1.0, 1.0))
    f = synthesize_profile("compact-bump", g, 0.75)
    R, Z = np.meshgrid(g.r_nodes, g.z_nodes, indexing="ij")
    assert np.all(f.regular_values[R ** 2 + Z ** 2 >= 1.0] == 0.0)
    assert f.regular_values[0, 1] > 0


def test_gaussian_bump_normalization():
    g = make_grid(4, 4.0, 200, 200, (1.0, 1.0))
    f = synthesize_profile("gaussian-bump", g, 0.75)
    zs = np.linspace(1e-4, 3.0, 5001)
    vals = eval_u(f, np.zeros_like(zs), zs)
    k = np.argmax(vals)
    assert vals[k] == pytest.approx(1.0, abs=2e-3)
    assert 0.0 < zs[k] < 3.0


def test_unknown_kind():
    g = make_grid(4, 1.0, 8, 8, (1.0, 1.0))
    with pytest.raises(UnknownKind):
        synthesize_profile("sombrero", g, 0.75)


def test_resample_identity_and_constant():
    g = make_grid(4, 2.0, 8, 8, (2.0, 2.0))
    f = synthesize_profile("envelope", g, 0.75)
    same = resample(f, g)
    assert np.array_equal(same.regular_values, f.regular_values)
    const = f.with_values(np.full(g.shape, 0.4))
    g2 = make_grid(4, 2.0, 12, 12, (2.0, 2.0))
    out = resample(const, g2)
    assert np.allclose(out.regular_values, 0.4, atol=1e-14)


def test_resample_round_trip():
    g = make_grid(4, 2.0, 12, 12, (2.0, 2.0))
    f = synthesize_profile("envelope", g, 0.75)
    fine = resample(f, make_grid(4, 2.0, 48, 48, (2.0, 2.0)))
    back = resample(fine, g)
    err = np.max(np.abs(back.regular_values - f.regular_values))
    assert err < 5e-3


def test_resample_dimension_mismatch():
    g = make_grid(4, 2.0, 8, 8, (2.0, 2.0))
    f = synthesize_profile("envelope", g, 0.75)
    with pytest.raises(GridMismatch):
        resample(f, make_grid(3, 2.0, 8, 8, (2.0, 2.0)))


def test_tail_model_extension():
    g = make_grid(4, 12.0, 32, 32, (2.0, 2.0))
    f = attach_tail_model(synthesize_profile("envelope", g, 0.75))
    assert f.tail is not None
    assert f.tail.exponent == pytest.approx(3.5)
    # outside the grid the tail tracks the true envelope decently
    got = eval_vt(f, 20.0, 5.0)
    want = (1 + 20.0 ** 2 + 5.0 ** 2) ** -1.75
    assert got == pytest.approx(want, rel=0.05)
    bare = synthesize_profile("envelope", g, 0.75)
    assert eval_vt(bare, 20.0, 5.0) == 0.0


def test_save_load_round_trip(tmp_path):
    g = make_grid(4, 2.0, 8, 10, (2.0, 1.5))
    f = attach_tail_model(synthesize_profile("envelope", g, 0.75))
    p1 = tmp_path / "f1.rsob"
    p2 = tmp_path / "f2.rsob"
    save_field(f, p1)
    f2 = load_field(p1)
    assert np.array_equal(f2.regular_values, f.regular_values)
    assert f2.grid.same_layout(f.grid)
    assert f2.sigma == f.sigma
    assert f2.tail == f.tail
    save_field(f2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_old_layout_file_loads(tmp_path):
    # files written before the grid lost its hat weights carry r_weights,
    # z_weights and a flags header; load_field ignores them
    g = make_grid(4, 2.0, 8, 10, (2.0, 1.5))
    f = attach_tail_model(synthesize_profile("envelope", g, 0.75))
    new = tmp_path / "new.rsob"
    save_field(f, new)
    header, arrays = read_container(new)
    header["flags"] = {"nonnegative": True}
    arrays["r_weights"] = np.linspace(0.0, 1.0, g.r_nodes.size)
    arrays["z_weights"] = np.linspace(1.0, 2.0, g.z_nodes.size)
    old = tmp_path / "old.rsob"
    write_container(old, header, arrays)
    a, b = load_field(new), load_field(old)
    assert np.array_equal(b.grid.r_nodes, a.grid.r_nodes)
    assert np.array_equal(b.grid.z_nodes, a.grid.z_nodes)
    assert np.array_equal(b.regular_values, a.regular_values)
    assert b.sigma == a.sigma
    assert b.tail == a.tail


def test_load_checks_file_kind(tmp_path):
    g = make_grid(4, 2.0, 8, 10, (2.0, 1.5))
    fp, tp = tmp_path / "f.rsob", tmp_path / "t.rsob"
    save_field(synthesize_profile("envelope", g, 0.75), fp)
    save_table(build_kernel_table(g, KernelParams.energy(4, 0.75)), tp)
    with pytest.raises(UnknownKind) as e:
        load_field(tp)
    assert f"{tp}: file kind 'kernel_table', expected 'radial_field'" in str(e.value)
    with pytest.raises(UnknownKind) as e:
        load_table(fp)
    assert f"{fp}: file kind 'radial_field', expected 'kernel_table'" in str(e.value)


def test_header_metadata(tmp_path):
    g = make_grid(4, 2.0, 8, 10, (2.0, 1.5))
    f = synthesize_profile("envelope", g, 0.75)
    p = tmp_path / "f.rsob"
    save_field(f, p)
    header, _ = read_container(p)
    assert header["n"] == 4
    assert header["sigma"] == 0.75
    assert header["N_r"] == 8
    assert header["N_z"] == 10
    assert header["R_max"] == 2.0


def test_truncated_file_detected(tmp_path):
    g = make_grid(4, 2.0, 8, 8, (2.0, 2.0))
    f = synthesize_profile("envelope", g, 0.75)
    p = tmp_path / "f.rsob"
    save_field(f, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-20])
    with pytest.raises(ChecksumFailure):
        load_field(p)


def test_flipped_payload_byte_detected(tmp_path):
    g = make_grid(4, 2.0, 8, 8, (2.0, 2.0))
    f = synthesize_profile("envelope", g, 0.75)
    p = tmp_path / "f.rsob"
    save_field(f, p)
    blob = bytearray(p.read_bytes())
    blob[-20] ^= 0x01  # inside the last array, before the checksum
    p.write_bytes(bytes(blob))
    with pytest.raises(ChecksumFailure):
        load_field(p)


def _with_crc(blob):
    """blob with its CRC-32 trailer recomputed, as a writer would leave it."""
    body = bytes(blob[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def test_corrupt_headers_rejected(tmp_path):
    g = make_grid(4, 2.0, 8, 8, (2.0, 2.0))
    p = tmp_path / "f.rsob"
    save_field(synthesize_profile("envelope", g, 0.75), p)
    good = p.read_bytes()

    p.write_bytes(b"XSOB" + good[4:])
    with pytest.raises(CorruptHeader, match="magic"):
        load_field(p)

    # header bytes that are not JSON, under a valid checksum
    blob = bytearray(good)
    blob[12] = ord("#")
    p.write_bytes(_with_crc(blob))
    with pytest.raises(CorruptHeader, match="header JSON"):
        load_field(p)

    # one float64 more than the header declares, under a valid checksum
    p.write_bytes(_with_crc(good[:-4] + bytes(8) + good[-4:]))
    with pytest.raises(CorruptHeader, match="payload size"):
        load_field(p)


def test_version1_file_rejected(tmp_path):
    g = make_grid(4, 2.0, 8, 8, (2.0, 2.0))
    f = synthesize_profile("envelope", g, 0.75)
    p = tmp_path / "f.rsob"
    save_field(f, p)
    blob = bytearray(p.read_bytes())
    blob[4:8] = (1).to_bytes(4, "little")
    p.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        load_field(p)


def test_dilate_exact_pointwise_and_tail():
    g = make_grid(4, 8.0, 10, 12, (2.0, 2.0))
    f = attach_tail_model(synthesize_profile("envelope", g, 0.75))
    lam = 2.0
    d = dilate_exact(f, lam)
    q = (4 - 1.5) / 2.0 + 0.5
    assert d.grid.R_max == pytest.approx(g.R_max / lam)
    # u_lam(x) = lam^((n-2*sigma)/2) u(lam x) at interior nodes
    r, z = g.r_nodes[3], g.z_nodes[5]
    assert eval_u(d, r / lam, z / lam) == pytest.approx(
        lam ** ((4 - 1.5) / 2.0) * eval_u(f, r, z), rel=1e-12
    )
    # tail agrees with the dilated interior formula beyond the grid
    assert d.tail.amplitude == pytest.approx(
        f.tail.amplitude * lam ** (q - f.tail.exponent)
    )
    for bad in (0.0, -2.0, np.nan, np.inf):
        with pytest.raises(InvalidParams, match="dilation factor lam"):
            dilate_exact(f, bad)
