"""Mutants of the library, each with the cheapest check that must fail.

A mutant replaces one module attribute through ``monkeypatch``, so it is
undone when its test ends, and runs that check, which must fail under it: a
mutant that passes every check it names shows a hole in the suite.  A
mutant of a function's or a class's body recompiles its source with one
expression replaced, at each of its occurrences, and asserts that the
expression occurs there as often as the mutant expects.
"""

import inspect
import textwrap
from bisect import bisect_left

import pytest

import test_elimination
import test_tapes
from congestlab import elimination, sampling
from congestlab.graphs import VertexId
from congestlab.randomness import RestrictedView
from schedules import MICRO
from test_streams import STREAMS, digest


def _moved(stream: str) -> bool:
    return digest(stream) != STREAMS[stream][1]


def _rewritten(module, name: str, old: str, new: str, count: int = 1):
    """``module.name`` compiled from its source with the ``count``
    occurrences of ``old`` replaced by ``new``, reading the module's
    globals."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == count, f"{old!r} is not {count}x in {name}"
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"),
         namespace)
    return namespace[name]


def test_a_k_set_that_copies_its_conditioned_entry(monkeypatch):
    # the target row of a K set copies the drawn row's entries from 0, the
    # conditioned entry included; at MICRO that row has no members, so only
    # a schedule with n_prev >= 2 can show it
    monkeypatch.setattr(sampling, "sample_aux", _rewritten(
        sampling, "sample_aux", "(e >= skip)", "0"))
    assert not _moved("sample_gr_tilde/MICRO")
    assert _moved("sample_gr_tilde/WIDE2")


def test_a_free_slot_that_lands_on_a_taken_one(monkeypatch):
    # a free position equal to a taken slot's offset is mapped onto that
    # slot, in the completion as in every pool and reservation
    monkeypatch.setattr(sampling, "bisect_right", bisect_left)
    assert _moved("sample_d_in/MICRO")


def _memo(monkeypatch, old: str, new: str, count: int = 1):
    """``StageMemo`` rewritten, in the library and in the tests that make
    one."""
    mutant = _rewritten(elimination, "StageMemo", old, new, count)
    for module in (elimination, test_elimination):
        monkeypatch.setattr(module, "StageMemo", mutant)


def test_a_memo_that_never_replaces_its_public_stage(monkeypatch):
    # the first execution's public stage and pairs serve every later one
    _memo(monkeypatch, "view.execution is not self.execution",
          "self.st1 is None")
    with pytest.raises(AssertionError):
        test_elimination.test_a_memo_tells_apart_executions_of_an_equal_seed(
            monkeypatch)


def test_a_pair_key_without_the_pair_type(monkeypatch):
    # two inputs that disagree on a pair's type share its message
    _memo(monkeypatch, "(x, y, pair_type)", "(x, y)", count=2)
    with pytest.raises(AssertionError):
        test_elimination.\
            test_runs_sharing_a_memo_draw_their_own_pair_of_another_type(
                monkeypatch)


def test_a_memo_key_without_y(monkeypatch):
    # a player is handed the stage of another pair of x with the same type
    _memo(monkeypatch, "(x, y, pair_type)", "(x, pair_type)", count=2)
    with pytest.raises(AssertionError, match="from the memo"):
        test_tapes.audit(monkeypatch, MICRO)


def test_a_private_stage_on_another_vertex_s_tape(monkeypatch):
    def private_rng(self, label):
        other = VertexId(self.owner.layer.others[0], self.owner.index)
        return self._full.private_rng(other, label)

    monkeypatch.setattr(RestrictedView, "private_rng", private_rng)
    with pytest.raises(AssertionError, match="private tape"):
        test_tapes.audit(monkeypatch, MICRO, names=["all-no"], seeds=[0])


def test_a_pair_tape_without_the_player(monkeypatch):
    def pair_rng(self, other, label):
        return self._full.pair_rng(other, other, label)

    monkeypatch.setattr(RestrictedView, "pair_rng", pair_rng)
    with pytest.raises(AssertionError, match="tape of pair"):
        test_tapes.audit(monkeypatch, MICRO, names=["all-no"], seeds=[0])
