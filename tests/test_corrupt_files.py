"""Truncated or corrupted checkpoints and caches load intact or raise DataError.

A flipped payload byte changes a stored value without breaking the file,
so a load that succeeds must return the same names, shapes, ids and
dtypes, with at most two values changed by a flip (one base64 character
spans two bytes) and none by a truncation.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvke.diffgraph as dg
import mvke.model as M
import mvke.serve as S
from mvke.errors import DataError

FILES = ("ckpt/params.jsonl", "caches/user_cache.bin",
         "caches/tag_cache_ctr.bin", "caches/tag_cache_cvr.bin")


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    with dg.precision("f32"):
        schema = M.FieldSchema(user_fields=(("color", 5), ("size", 4)),
                               tag_vocab_size=6, embed_dim=4)
        model = M.MvkeModel(M.ModelConfig(schema, M.five_expert_routing()), seed=0)
        M.save_model(model, root / "ckpt")
        users = [(u, (u % 5, u % 4)) for u in range(3)]
        S.save_caches(S.build_caches(model, users, range(6)), root / "caches")
    return root


def _load(root: Path, name: str) -> tuple[list, dict[str, np.ndarray]]:
    """(ids and index fields, arrays by name) of the artifact ``name`` belongs to."""
    if name.startswith("ckpt/"):
        return [], {n: t.data for n, t in M.load_model(root / "ckpt").params.items()}
    user_cache, tag_cache = S.load_caches(root / "caches")
    index = [user_cache.user_ids]
    arrays = {"user": user_cache.vectors}
    for task, tc in tag_cache.per_task.items():
        index.append((tc.tag_ids, tc.expert_ids, tc.tau))
        arrays[f"{task.value}.embeddings"] = tc.embeddings
        arrays[f"{task.value}.gates"] = tc.gate_weights
    return index, arrays


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(FILES), where=st.floats(0.0, 1.0),
       mask=st.integers(0, 255))
def test_corrupt_file_loads_intact_or_raises_data_error(pristine, name, where, mask):
    """``mask`` 0 truncates the file at ``where``; else it XORs one byte there."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(pristine / "ckpt", root / "ckpt")
        shutil.copytree(pristine / "caches", root / "caches")
        raw = bytearray((root / name).read_bytes())
        pos = min(int(where * len(raw)), len(raw) - 1)
        if mask:
            raw[pos] ^= mask
        else:
            del raw[pos:]
        (root / name).write_bytes(bytes(raw))
        try:
            index, arrays = _load(root, name)
        except DataError:
            return
    want_index, want = _load(pristine, name)
    assert index == want_index and arrays.keys() == want.keys()
    changed = 0
    for key, arr in want.items():
        assert arrays[key].shape == arr.shape and arrays[key].dtype == arr.dtype, key
        changed += int(np.sum(arrays[key] != arr))
    assert changed <= (2 if mask else 0)
