import pathlib
import sys

import pytest

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

@pytest.fixture(scope="session")
def save_identity():
    """``save_identity(vdoc, path, **kw)``: ``vdoc.save`` with every
    vector forced to the ``identity`` codec — the uncompressed twin the
    differential tests compare a codec-coded file against.  ``src/`` has
    no switch for it; the codec choice is patched for the one save."""
    from repro.storage.codecs import IDENTITY

    def save(vdoc, path, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.storage.codecs.choose_codec",
                       lambda values: IDENTITY)
            return vdoc.save(path, **kwargs)
    return save
