"""Mutants of the library, each with the cheapest check that must fail.

A mutant replaces one module attribute through ``monkeypatch``, so it is
undone when its test ends, and runs that check, which must fail under it: a
mutant that passes every check it names shows a hole in the suite.  A
mutant of a function's body recompiles the function's source with one
expression replaced, and asserts that the expression is there.
"""

import inspect
import textwrap
from bisect import bisect_left

import pytest

import test_elimination
from congestlab import elimination, sampling
from test_streams import STREAMS, digest


def _moved(stream: str) -> bool:
    return digest(stream) != STREAMS[stream][1]


def _rewritten(module, name: str, old: str, new: str):
    """``module.name`` compiled from its source with the one occurrence of
    ``old`` replaced by ``new``, reading the module's globals."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, f"{old!r} is not once in {name}"
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"),
         namespace)
    return namespace[name]


def test_a_k_set_that_copies_its_conditioned_entry(monkeypatch):
    # the target row of a K set copies the drawn row's entries from 0, the
    # conditioned entry included; at MICRO that row has no members, so only
    # a schedule with n_prev >= 2 can show it
    mutant = _rewritten(sampling, "tilde_plan", "(e >= skip)", "0")
    for module in (sampling, elimination):
        monkeypatch.setattr(module, "tilde_plan", mutant)
    assert not _moved("sample_gr_tilde/MICRO")
    assert _moved("sample_gr_tilde/WIDE2")


def test_plans_kept_across_executions(monkeypatch):
    # one plan per inner vertex for good, where a plan holds one frame
    kept, build = {}, elimination.tilde_plan

    def mutant(x, *args):
        if x not in kept:
            kept[x] = build(x, *args)
        return kept[x]

    monkeypatch.setattr(elimination, "tilde_plan", mutant)
    with pytest.raises(AssertionError):
        test_elimination.test_the_next_execution_builds_new_plans(
            monkeypatch)


def test_a_free_slot_that_lands_on_a_taken_one(monkeypatch):
    # a free position equal to a taken slot's offset is mapped onto that
    # slot, in the completion as in every pool and reservation
    monkeypatch.setattr(sampling, "bisect_right", bisect_left)
    assert _moved("sample_d_in/MICRO")
