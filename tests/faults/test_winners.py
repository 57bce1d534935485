"""Winner-policy arbitration of "arbitrary" concurrent writes."""

import pytest

from repro.core import PRAM, QSM, SQSM, PRAMParams
from repro.models import PEM, PEMParams
from repro.faults.winners import (
    WINNER_POLICY_NAMES,
    FirstWriterWins,
    LastWriterWins,
    ReplayWinners,
    SeededWinners,
    make_winner_policy,
)


def collide(machine, values, addr=0):
    """One phase where processor i writes values[i] to ``addr``; return cell."""
    with machine.phase() as ph:
        for proc, value in enumerate(values):
            ph.write(proc, addr, value)
    return machine.peek(addr)


def many_collisions(machine, phases, cells):
    """``phases`` phases; in each, cell ``c`` of a fresh block of ``cells``
    gets 1 to 9 writers, one processor per write."""
    for phase in range(phases):
        procs, addrs = [], []
        for c in range(cells):
            for _ in range(1 + (7 * c + phase) % 9):
                procs.append(len(procs))
                addrs.append(phase * cells + c)
        with machine.phase() as ph:
            ph.write_each(procs, addrs, [1000 * phase + p for p in procs])


class TestPolicies:
    def test_first_writer_wins(self):
        m = QSM(winner_policy=FirstWriterWins())
        assert collide(m, [10, 20, 30]) == 10

    def test_last_writer_wins(self):
        m = QSM(winner_policy=LastWriterWins())
        assert collide(m, [10, 20, 30]) == 30

    def test_seeded_policy_matches_machine_default(self):
        # SeededWinners(s) arbitrates exactly like a policy-free machine
        # seeded with s: the historical behaviour stays bit-compatible.
        for seed in (0, 7, 123):
            default = collide(QSM(seed=seed), list(range(100, 108)))
            policied = collide(
                QSM(seed=seed, winner_policy=SeededWinners(seed)),
                list(range(100, 108)),
            )
            assert default == policied

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    @pytest.mark.parametrize(
        "factory",
        [
            QSM,
            SQSM,
            lambda **kw: PRAM(PRAMParams(variant="CRCW", write_rule="arbitrary"), **kw),
            lambda **kw: PEM(PEMParams(M=8, B=2), **kw),
        ],
        ids=["qsm", "sqsm", "crcw-pram", "pem"],
    )
    def test_seeded_policy_matches_batched_machine_default(self, factory, engine):
        # Many collided cells per phase, with 1 to 9 writers each: the
        # policy-free machine draws a phase's winners in one batch, the
        # policy cell by cell, and every cell must get the same winner.
        for seed in (0, 7, 123):
            default = factory(seed=seed, engine=engine)
            policied = factory(
                seed=seed, winner_policy=SeededWinners(seed), engine=engine
            )
            for m in (default, policied):
                many_collisions(m, phases=4, cells=40)
            cells = range(4 * 40)
            assert [default.peek(a) for a in cells] == [policied.peek(a) for a in cells]

    def test_seeded_reset_replays_the_stream(self):
        policy = SeededWinners(3)
        first = collide(QSM(winner_policy=policy), list(range(50, 58)))
        policy.reset()
        second = collide(QSM(winner_policy=policy), list(range(50, 58)))
        assert first == second

    def test_replay_forces_decisions_and_logs(self):
        policy = ReplayWinners({0: 2})
        m = QSM(winner_policy=policy)
        assert collide(m, [10, 20, 30, 40]) == 30
        assert policy.log == [(0, 4, 2)]

    def test_replay_reduces_forced_choice_modulo_writers(self):
        policy = ReplayWinners({0: 5})  # 5 % 3 == 2
        assert collide(QSM(winner_policy=policy), [10, 20, 30]) == 30

    def test_replay_default_policy_used_without_override(self):
        policy = ReplayWinners(default=LastWriterWins())
        assert collide(QSM(winner_policy=policy), [1, 2, 3]) == 3

    def test_policy_applies_to_sqsm_and_crcw_pram(self):
        assert collide(SQSM(winner_policy=LastWriterWins()), [5, 6]) == 6
        pram = PRAM(
            PRAMParams(variant="CRCW", write_rule="arbitrary"),
            winner_policy=LastWriterWins(),
        )
        assert collide(pram, [5, 6]) == 6

    def test_singleton_writes_never_consult_the_policy(self):
        class Exploding(FirstWriterWins):
            def choose(self, addr, writers, phase_index):
                raise AssertionError("no collision happened")

        m = QSM(winner_policy=Exploding())
        with m.phase() as ph:
            ph.write(0, 0, 1)
            ph.write(1, 1, 2)
        assert (m.peek(0), m.peek(1)) == (1, 2)

    def test_out_of_range_choice_is_rejected(self):
        class Bad(FirstWriterWins):
            def choose(self, addr, writers, phase_index):
                return len(writers)

        with pytest.raises(ValueError, match="chose index"):
            collide(QSM(winner_policy=Bad()), [1, 2])


class TestFactory:
    def test_names_resolve(self):
        assert isinstance(make_winner_policy("seeded", seed=4), SeededWinners)
        assert isinstance(make_winner_policy("first"), FirstWriterWins)
        assert isinstance(make_winner_policy("last"), LastWriterWins)
        assert set(WINNER_POLICY_NAMES) == {"seeded", "first", "last"}

    def test_none_and_instances_pass_through(self):
        assert make_winner_policy(None) is None
        policy = LastWriterWins()
        assert make_winner_policy(policy) is policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown winner policy"):
            make_winner_policy("coinflip")

    def test_machine_accepts_policy_by_name(self):
        assert collide(QSM(winner_policy="last"), [7, 8, 9]) == 9
