"""Dump files: the save/restore unit of distribution and migration."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Decomposition, make_subregions
from repro.distrib import dump_path, load_dump, save_dump
from repro.distrib.dumpfile import DumpCorruption


def _make_sub(seed=0, shape=(20, 16), blocks=(2, 2)):
    rng = np.random.default_rng(seed)
    fields = {
        "rho": rng.random(shape),
        "f": rng.random((9,) + shape),
    }
    solid = rng.random(shape) < 0.1
    d = Decomposition(shape, blocks, solid=None)
    sub = make_subregions(d, 3, fields, solid)[0]
    sub.step = 17
    sub.extra["jet_phase"] = 0.25
    return sub


def drop_checksums(path, names=None):
    """Rewrite a dump with the ``names`` CRC32 entries removed from its
    manifest, or the whole ``crc32`` key when ``names`` is None."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    manifest = json.loads(str(arrays.pop("manifest")))
    if names is None:
        del manifest["crc32"]
    else:
        for name in names:
            del manifest["crc32"][name]
    with open(path, "wb") as fh:
        np.savez(fh, manifest=json.dumps(manifest), **arrays)


class TestChecksumsRequired:
    @pytest.mark.parametrize("names", [None, ["solid"], ["field__rho"]],
                             ids=["no_key", "solid", "field"])
    def test_unchecksummed_array_refused(self, tmp_path, names):
        path = tmp_path / "d.npz"
        save_dump(_make_sub(), path)
        drop_checksums(path, names)
        with pytest.raises(DumpCorruption, match="has no CRC32"):
            load_dump(path)


class TestRoundTrip:
    @given(seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_exact(self, tmp_path_factory, seed):
        sub = _make_sub(seed)
        path = tmp_path_factory.mktemp("dumps") / "d.npz"
        save_dump(sub, path)
        back = load_dump(path)
        assert back.block == sub.block
        assert back.pad == sub.pad
        assert back.step == sub.step
        assert back.extra == sub.extra
        assert set(back.fields) == set(sub.fields)
        for name in sub.fields:
            np.testing.assert_array_equal(back.fields[name],
                                          sub.fields[name])
        np.testing.assert_array_equal(back.solid, sub.solid)

    def test_aux_not_stored(self, tmp_path):
        sub = _make_sub()
        sub.aux["scratch"] = np.zeros(3)
        path = tmp_path / "d.npz"
        save_dump(sub, path)
        assert load_dump(path).aux == {}

    def test_bitwise_fields(self, tmp_path):
        """No precision loss: the dump is the migration mechanism and
        must not perturb the computation."""
        sub = _make_sub(3)
        sub.fields["rho"][5, 5] = np.nextafter(1.0, 2.0)
        path = tmp_path / "d.npz"
        save_dump(sub, path)
        assert load_dump(path).fields["rho"][5, 5] == np.nextafter(1.0, 2.0)


class TestAtomicity:
    def test_no_tmp_left_behind(self, tmp_path):
        sub = _make_sub()
        save_dump(sub, tmp_path / "d.npz")
        leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name]
        assert leftovers == []

    def test_overwrite_is_atomic_rename(self, tmp_path):
        sub = _make_sub()
        path = tmp_path / "d.npz"
        save_dump(sub, path)
        sub.step = 99
        save_dump(sub, path)
        assert load_dump(path).step == 99

    def test_creates_parent_dirs(self, tmp_path):
        sub = _make_sub()
        path = tmp_path / "a" / "b" / "d.npz"
        save_dump(sub, path)
        assert path.exists()


class TestDumpPath:
    def test_naming(self, tmp_path):
        assert dump_path(tmp_path, 3).name == "state_rank0003.npz"
        assert (
            dump_path(tmp_path, 12, tag="ckpt000000100").name
            == "ckpt000000100_rank0012.npz"
        )
