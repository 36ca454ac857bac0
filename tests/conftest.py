import pytest

import mvke.diffgraph as dg
from mvke.model import FieldSchema, ModelConfig, five_expert_routing

from fakes import FakeExample


@pytest.fixture
def small_schema():
    return FieldSchema(user_fields=(("color", 5), ("size", 4), ("habits", 7)),
                       tag_vocab_size=10, embed_dim=8)


@pytest.fixture
def small_cfg(small_schema):
    return ModelConfig(schema=small_schema, routing=five_expert_routing())


@pytest.fixture
def small_batch_examples():
    return [
        FakeExample((1, 2, 3), (1, 4), 1, 0),
        FakeExample(((0, 2), 1, 6), (2,), 0, 0),
        FakeExample((4, 0, 0), (7, 8, 3), 1, 1),
        FakeExample((2, 3, 2), (9,), 0, 0),
    ]


@pytest.fixture
def f64():
    with dg.precision("f64"):
        yield
