"""Mutants of the library, each with the cheapest check that must fail.

A mutant replaces one module attribute through ``monkeypatch``, so it is
undone when its test ends, and runs that check, which must fail under it: a
mutant that passes every check it names shows a hole in the suite.  A
mutant of a function's or a class's body recompiles its source with one
expression replaced, at each of its occurrences, and asserts that the
expression occurs there as often as the mutant expects.  Where a test
module imported the mutated name itself, the mutant replaces it there too.
"""

import inspect
import textwrap
from bisect import bisect_left

import pytest

import test_cli
import test_elimination
import test_graphs
import test_params
import test_protocols
import test_randomness
import test_sampling
import test_streams
import test_tapes
from congestlab import (cli, elimination, errors, infotheory, params,
                        protocols, sampling)
from congestlab.errors import CapExceeded, OutOfRange
from congestlab.graphs import Layer, TypedTripartiteGraph, VertexId
from congestlab.protocols import VertexInput
from congestlab.randomness import RestrictedView
from schedules import MICRO
from test_streams import STREAMS, digest


def _moved(stream: str) -> bool:
    return digest(stream) != STREAMS[stream][1]


def _rewritten(owner, name: str, old: str, new: str, count: int = 1):
    """``owner.name``, a function, a class or a method of the class
    ``owner``, compiled from its source with the ``count`` occurrences of
    ``old`` replaced by ``new``.  It reads its module's globals as they are
    when it runs, so a name patched in the module reaches it too.  It is
    compiled under a file name of its own, so that a line trace does not
    count its lines as lines of the module."""
    module = inspect.getmodule(owner)
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == count, f"{old!r} is not {count}x in {name}"
    namespace = {}
    exec(compile(source.replace(old, new),
                 f"<mutant of {module.__name__}.{name}>", "exec"),
         vars(module), namespace)
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


def test_a_trial_pair_tape_read_at_the_other_endpoint(monkeypatch):
    # a trial's run reads the tape of x's pair with y through y's view,
    # which names the pair (y, y)
    monkeypatch.setattr(elimination, "run_stages", _rewritten(
        elimination, "run_stages", "view.restrict(u), v",
        "view.restrict(v), v"))
    with pytest.raises(AssertionError, match="tape of pair"):
        test_tapes.audit_trials(monkeypatch, MICRO, names=["all-no"],
                                seeds=[0])


def test_a_restrict_without_its_owner_check(monkeypatch):
    # a vertex's restricted view hands out another vertex's tapes
    monkeypatch.setattr(RestrictedView, "restrict", _rewritten(
        RestrictedView, "restrict", "v != self.owner", "False"))
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_randomness.test_restricted_view_routes_to_owner()


def test_a_round_cutoff_that_drops_its_last_type(monkeypatch):
    # the channels of round i stop below type r+1-i, while round_messages
    # still sends over a channel of type r+1-i
    monkeypatch.setattr(VertexInput, "channels_at_round", _rewritten(
        VertexInput, "channels_at_round", "t <= cutoff", "t < cutoff"))
    with pytest.raises(AssertionError):
        test_protocols.\
            test_channels_at_round_match_the_dense_scan_in_both_rounds()
    with pytest.raises(AssertionError):
        test_protocols.\
            test_round_messages_sends_exactly_where_channels_at_round_lists(
                test_protocols.CUTOFF_DRAWS["level1-n200-recursive"])


def test_a_row_check_that_lets_slot_n_through(monkeypatch):
    # set_row's builtin pass admits slot n, the vertex of index n + 1
    monkeypatch.setattr(TypedTripartiteGraph, "set_row", _rewritten(
        TypedTripartiteGraph, "set_row", "max(slots) < n", "max(slots) <= n"))
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_graphs.\
            test_set_row_refuses_what_set_type_refuses_and_writes_nothing(
                VertexId(Layer.A, 3), Layer.B, {0: 0, 1: 1, 3: 0},
                OutOfRange, r"vertex B4 outside \[1, 3\]")


def test_a_json_number_that_accepts_a_bool(monkeypatch, tmp_path):
    # an info table's probability `true` is read as 1.0
    monkeypatch.setattr(cli, "json_number", _rewritten(
        errors, "json_number", "type(x) not in (int, float)",
        "not isinstance(x, (int, float))"))
    with pytest.raises(AssertionError):
        test_cli.test_info_refuses_an_entry_that_is_not_one_json_number(
            tmp_path, "[[0, true]]",
            "probability of outcome (0,) must be a number, got True")


def test_a_gr_row_that_tops_up_every_type_to_a_full_chunk(monkeypatch):
    # the inner row's own count of a type is not subtracted, so an outer
    # copy of a starred vertex carries more than d channels of that type
    monkeypatch.setattr(sampling, "_gr_rows", _rewritten(
        sampling, "_gr_rows", "d - row.count(t)", "d - 0"))
    with pytest.raises(AssertionError):
        test_sampling.test_gr_per_type_degree_exact()


def test_a_restructured_check_without_its_gamma_term(monkeypatch):
    # F leaves out the gamma*n_prev L slots of one type
    mutant = _rewritten(params, "restructured_feasibility_check",
                        'lv["gamma"] * n_prev', "0")
    for module in (params, test_sampling):
        monkeypatch.setattr(module, "restructured_feasibility_check", mutant)
    with pytest.raises(AssertionError):
        test_sampling.test_aux_reservation_beyond_the_pool_is_infeasible()


def test_a_room_rule_one_level_short(monkeypatch):
    # the starred set and 2*d*l channel chunks, not 2*d*(l+1)
    mutant = _rewritten(params, "feasibility_check", "2 * d * (l + 1)",
                        "2 * d * l")
    for module in (params, test_params):
        monkeypatch.setattr(module, "feasibility_check", mutant)
    with pytest.raises(AssertionError):
        test_params.test_sampling_room_violation()


def _exact_success(monkeypatch, old: str, new: str):
    mutant = _rewritten(protocols, "exact_success", old, new)
    for module in (protocols, test_protocols):
        monkeypatch.setattr(module, "exact_success", mutant)


def test_an_exact_success_that_runs_a_randomized_protocol(monkeypatch):
    # a randomized protocol is run on one tape and its result called exact
    _exact_success(monkeypatch, "not p.deterministic", "False")
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_protocols.test_exact_success_rejects_tape_dependence(monkeypatch)


def test_a_support_cap_that_refuses_a_support_of_its_own_size(monkeypatch):
    _exact_success(monkeypatch, "count > EXACT_SUPPORT_CAP",
                   "count >= EXACT_SUPPORT_CAP")
    with pytest.raises(CapExceeded, match="support exceeds cap 8"):
        test_protocols.test_exact_success_refuses_a_support_above_its_cap(
            monkeypatch)


def test_an_entropy_summed_by_the_builtin(monkeypatch):
    # the builtin sum rounds as the interpreter does: the 3.11 digest holds
    # on 3.11, and the guard's compensated sum moves it
    monkeypatch.setattr(infotheory, "_entropy", _rewritten(
        infotheory, "_entropy", "return out",
        "return sum(p * math.log2(1 / p) for p in probs.values() if p > 0)"))
    with pytest.raises(AssertionError):
        test_streams.test_infotheory_ignores_a_compensated_sum(monkeypatch)
