"""The compiled protocol reads only the tapes a 0-round player may read.

A player of the compiled protocol answers from its own input, the public
tape, the tapes of the pairs that contain it and its own private tape.  The
audit runs ``simulate`` of the compiled protocol with the player whose
``output_fn`` runs recorded, every tape derivation (``randomness._derive``)
spied on, and every pair stage that a player takes from the shared
``StageMemo`` without drawing it (a hit derives no tape) traced to the pair
it was drawn for.  The trial audit runs ``run_elimination_trials``, whose
per-vertex runs read the pair and private tapes through
``view.restrict(u)`` of a full view, with the owner of the restricted view
that derives each tape recorded.
"""

import dataclasses
import random

import pytest

from congestlab import elimination, randomness
from congestlab.elimination import (EliminationConfig, build_pi_r_minus_1,
                                    run_elimination_trials)
from congestlab.protocols import registry, simulate
from congestlab.randomness import RestrictedView
from congestlab.sampling import sample_g0
from schedules import MICRO, WIDE2

REG = registry(rounds=1, bandwidth=1)


def audit(monkeypatch, p, names=tuple(REG), seeds=(0, 1, 2)) -> list:
    """Run the compiled protocol of each registry protocol in ``names`` on
    ``p``'s level-0 instance of each seed, and return, per execution, the
    tapes it derived.  Asserts that no tape is derived outside a player's
    output step, that each pair tape contains the player and each private
    tape is the player's own, and that every memo hit's pair has the player
    as an endpoint."""
    player, derived, origin = [None], [], {}
    derive, pair_stage = randomness._derive, elimination.StageMemo.pair_stage

    def spied(seed, *parts):
        derived.append((player[0], parts))
        return derive(seed, *parts)

    def traced(self, pi, cfg, tapes, v, x, y, pair_type, n_in):
        known = {id(drawn) for drawn in self.pairs.values()}
        drawn = pair_stage(self, pi, cfg, tapes, v, x, y, pair_type, n_in)
        if id(drawn) in known:
            assert player[0] in origin[id(drawn)][1], (
                f"{player[0]!r} took the stage of "
                f"{origin[id(drawn)][1]} from the memo")
        else:
            # kept with the stage, so that its id is not reused
            origin[id(drawn)] = drawn, (x, y)
        return drawn

    monkeypatch.setattr(randomness, "_derive", spied)
    monkeypatch.setattr(elimination.StageMemo, "pair_stage", traced)
    cfg = EliminationConfig(params=p, level=1, cap=3000)
    counts = []
    for name in names:
        built = build_pi_r_minus_1(REG[name], cfg)
        output = built.output_fn

        def recorded(inp, inbox, view):
            player[0] = inp.identity
            try:
                return output(inp, inbox, view)
            finally:
                player[0] = None

        built = dataclasses.replace(built, output_fn=recorded)
        for seed in seeds:
            g, _ = sample_g0(p.n[0], random.Random(seed))
            derived.clear()
            simulate(built, g, randomness.RandomnessView(seed))
            for who, parts in derived:
                assert who is not None, f"{parts} derived outside a player"
                assert parts[0] in ("public", "pair", "private"), parts
                _check_own(who, parts)
            counts.append(len(derived))
    return counts


def audit_trials(monkeypatch, p, names=tuple(REG), seeds=(0, 1, 2)) -> list:
    """Run one elimination trial of each registry protocol in ``names`` on
    ``p`` for each seed, and return, per trial, the number of pair and
    private tapes it derived.  Asserts that each is derived through a
    restricted view, and that a pair tape contains the view's owner and a
    private tape is the owner's own."""
    owners, derived = [], []
    derive = randomness._derive

    def spied(seed, *parts):
        derived.append((owners[-1] if owners else None, parts))
        return derive(seed, *parts)

    def owned(method):
        def run(self, *args):
            owners.append(self.owner)
            try:
                return method(self, *args)
            finally:
                owners.pop()
        return run

    monkeypatch.setattr(randomness, "_derive", spied)
    for name in ("pair_rng", "private_rng"):
        monkeypatch.setattr(RestrictedView, name,
                            owned(getattr(RestrictedView, name)))
    cfg = EliminationConfig(params=p, level=1, cap=3000)
    counts = []
    for name in names:
        for seed in seeds:
            derived.clear()
            run_elimination_trials(REG[name], cfg, 1, seed)
            own = [(who, parts) for who, parts in derived
                   if parts[0] in ("pair", "private")]
            for who, parts in own:
                assert who is not None, f"{parts} derived on the full view"
                _check_own(who, parts)
            counts.append(len(own))
    return counts


def _check_own(who, parts):
    """Assert that a pair tape ``parts`` names is of two vertices, ``who``
    one of them, and that a private one is ``who``'s own; any other tape
    passes."""
    kind, own = parts[0], repr(who)
    if kind == "pair":
        assert own in parts[1:3] and parts[1] != parts[2], (
            f"{who!r} read the tape of pair {parts[1:3]}")
    elif kind == "private":
        assert parts[1] == own, f"{who!r} read the private tape of {parts[1]}"


@pytest.mark.parametrize("p, tapes", [(MICRO, 10), (WIDE2, 31)],
                         ids=["MICRO", "WIDE2"])
def test_a_compiled_player_reads_only_its_own_tapes(monkeypatch, p, tapes):
    # one public tape, one per ordered inner pair of two layers and one
    # private tape per inner vertex: each is derived once per execution
    n0 = p.n[0]
    assert tapes == 1 + 3 * n0 * 2 * n0 + 3 * n0
    assert audit(monkeypatch, p) == [tapes] * (len(REG) * 3)


@pytest.mark.parametrize("p, tapes", [(MICRO, 9), (WIDE2, 30)],
                         ids=["MICRO", "WIDE2"])
def test_a_trial_s_runs_read_their_own_tapes(monkeypatch, p, tapes):
    # one tape per ordered inner pair of two layers and one private tape
    # per inner vertex, as in a compiled execution less its public tape
    assert audit_trials(monkeypatch, p) == [tapes] * (len(REG) * 3)
