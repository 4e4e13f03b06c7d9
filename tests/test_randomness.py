import pytest

from congestlab.graphs import Layer, VertexId
from congestlab.randomness import RandomnessView

A1 = VertexId(Layer.A, 1)
B1 = VertexId(Layer.B, 1)
C2 = VertexId(Layer.C, 2)


def test_replay_is_exact():
    v1, v2 = RandomnessView(7), RandomnessView(7)
    assert v1.public_rng("x").random() == v2.public_rng("x").random()
    assert (v1.pair_rng(A1, B1, "m").random()
            == v2.pair_rng(A1, B1, "m").random())
    assert (v1.private_rng(C2, "p").random()
            == v2.private_rng(C2, "p").random())


def test_labels_give_independent_streams():
    v = RandomnessView(7)
    assert v.public_rng("x").random() != v.public_rng("y").random()


def test_pair_tape_symmetric_in_endpoints():
    v = RandomnessView(3)
    assert (v.pair_rng(A1, B1, "m").random()
            == v.pair_rng(B1, A1, "m").random())


def test_seeds_differ():
    assert (RandomnessView(1).public_rng("x").random()
            != RandomnessView(2).public_rng("x").random())


def test_restricted_view_routes_to_owner():
    v = RandomnessView(5)
    rv = v.restrict(A1)
    assert rv.public_rng("x").random() == v.public_rng("x").random()
    assert rv.pair_rng(B1, "m").random() == v.pair_rng(A1, B1, "m").random()
    assert rv.private_rng("p").random() == v.private_rng(A1, "p").random()
    # a restricted view restricts only to its owner
    assert rv.restrict(A1) is rv
    for other in (B1, C2, VertexId(Layer.A, 2)):
        with pytest.raises(ValueError, match="cannot read"):
            rv.restrict(other)
    # a pair tape is the same from either endpoint
    assert (v.restrict(B1).pair_rng(A1, "m").random()
            == rv.pair_rng(B1, "m").random())


def test_an_execution_token_names_its_view_and_reads_no_tape():
    v, w = RandomnessView(5), RandomnessView(5)
    # every restricted view of one view carries its token
    for owner in (A1, B1, C2):
        assert v.restrict(owner).execution is v.execution
    assert v.restrict(A1).restrict(A1).execution is v.execution
    # an equal seed is another execution
    assert w.execution is not v.execution
    assert w.execution != v.execution
    # the token reads no tape, and a restricted view shows no seed
    token = v.execution
    assert [name for name in dir(token) if not name.startswith("_")] == []
    assert not hasattr(token, "__dict__")
    assert not hasattr(v.restrict(A1), "seed")
