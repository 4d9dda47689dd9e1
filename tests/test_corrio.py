import pytest

from shapecorr.corrio import load_correspondence, save_correspondence
from shapecorr.meshes import identity_correspondence

from conftest import icosphere


def test_binary_corr_cut_anywhere_raises_value_error(tmp_path):
    corr = identity_correspondence(icosphere(0))
    save_correspondence(corr, tmp_path / "full.corr")
    data = (tmp_path / "full.corr").read_bytes()
    p = tmp_path / "cut.corr"
    for n in range(len(data)):
        p.write_bytes(data[:n])
        with pytest.raises(ValueError):
            load_correspondence(p)
