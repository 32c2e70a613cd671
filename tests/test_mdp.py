"""Gridworld construction, validation, and dynamics perturbation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import firl.mdp
from firl.mdp import (GRID_ACTIONS, FiniteMdp, build_gridworld,
                      modify_dynamics, reachable_states, validate)

RIGHT, UP, LEFT, DOWN, STAY = (GRID_ACTIONS.index(a) for a in
                               ("right", "up", "left", "down", "stay"))


def test_rows_are_distributions():
    mdp = build_gridworld(3, 3, slip_prob=0.2, horizon=4)
    sums = mdp.transitions.sum(axis=2)
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert np.all(mdp.transitions >= 0)


def test_deterministic_moves():
    mdp = build_gridworld(3, 3, slip_prob=0.0, horizon=4)
    # state 0 is the bottom-left corner
    assert mdp.transitions[0, RIGHT, 1] == 1.0
    assert mdp.transitions[0, UP, 3] == 1.0
    assert mdp.transitions[0, LEFT, 0] == 1.0   # wall
    assert mdp.transitions[0, DOWN, 0] == 1.0   # wall
    assert mdp.transitions[0, STAY, 0] == 1.0
    # center state moves freely
    assert mdp.transitions[4, RIGHT, 5] == 1.0
    assert mdp.transitions[4, UP, 7] == 1.0
    assert mdp.transitions[4, LEFT, 3] == 1.0
    assert mdp.transitions[4, DOWN, 1] == 1.0


def test_slip_mass_splits_over_other_effects():
    mdp = build_gridworld(3, 3, slip_prob=0.2, horizon=4)
    row = mdp.transitions[4, RIGHT]
    assert row[5] == pytest.approx(0.8)
    for sp in (7, 3, 1, 4):   # up, left, down, stay effects
        assert row[sp] == pytest.approx(0.05)


def test_coords_are_cell_centers():
    mdp = build_gridworld(4, 3, horizon=2)
    for s in range(mdp.n_states):
        assert mdp.coords[s, 0] == s % 4 + 0.5
        assert mdp.coords[s, 1] == s // 4 + 0.5


def test_init_dist_is_point_mass():
    mdp = build_gridworld(3, 3, init_state=7, horizon=2)
    expected = np.zeros(9)
    expected[7] = 1.0
    assert np.array_equal(mdp.init_dist, expected)


def test_default_coords_lay_states_on_a_line():
    P = np.zeros((2, 1, 2))
    P[0, 0, 1] = 1.0
    P[1, 0, 1] = 1.0
    mdp = FiniteMdp(P, [1.0, 0.0], horizon=2)
    assert np.array_equal(mdp.coords, [[0.5, 0.5], [1.5, 0.5]])


def test_validate_rejects_bad_row_sum():
    mdp = build_gridworld(2, 2, horizon=2)
    P = mdp.transitions.copy()
    P[1, 0] *= 0.5
    with pytest.raises(ValueError, match=r"\(s=1, a=0\) sums to"):
        FiniteMdp(P, mdp.init_dist, mdp.horizon)


def test_validate_rejects_negative_probability():
    mdp = build_gridworld(2, 2, horizon=2)
    P = mdp.transitions.copy()
    P[0, 1, 0] -= 2.0
    P[0, 1, 1] += 2.0
    with pytest.raises(ValueError, match="negative transition"):
        FiniteMdp(P, mdp.init_dist, mdp.horizon)


def test_the_mdp_owns_read_only_copies_of_its_arrays():
    grid = build_gridworld(2, 2, horizon=2)
    P, coords = grid.transitions.copy(), grid.coords.copy()
    init = np.array([1.0, 0.0, 0.0, 0.0])
    mdp = FiniteMdp(P, init, 2, coords)
    P[0, 0] = 0.25
    init[:] = 0.25
    coords[1] = coords[0]
    assert mdp.transitions[0, 0, 1] == 1.0 and mdp.init_dist[0] == 1.0
    assert np.array_equal(mdp.coords, grid.coords)
    for values in (mdp.transitions, mdp.init_dist, mdp.coords, mdp.succ, mdp.probs):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0


@pytest.mark.parametrize("slip", [0.0, 0.3])
def test_successor_tables_list_every_non_zero_in_index_order(slip):
    mdp = build_gridworld(4, 3, slip_prob=slip, horizon=2)
    want = 1 if slip == 0.0 else 5
    assert mdp.succ.shape == mdp.probs.shape == (12, 5, want)
    for s in range(mdp.n_states):
        for a in range(mdp.n_actions):
            row = mdp.transitions[s, a]
            nz = np.nonzero(row)[0]
            k = len(nz)
            assert np.array_equal(mdp.succ[s, a, :k], nz)
            assert np.array_equal(mdp.probs[s, a, :k], row[nz])
            assert np.all(mdp.probs[s, a, k:] == 0.0)


def test_validate_rejects_bad_init_dist():
    mdp = build_gridworld(2, 2, horizon=2)
    mdp.init_dist = np.array([0.5, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="init_dist sums to"):
        validate(mdp)


def test_reachable_states_follow_the_horizon():
    # a 4-cell corridor from the left end: t = 1..T reaches cells 0..T
    for horizon, want in ((1, [1, 1, 0, 0]), (2, [1, 1, 1, 0]), (5, [1, 1, 1, 1])):
        mdp = build_gridworld(4, 1, horizon=horizon)
        assert np.array_equal(reachable_states(mdp), np.array(want, dtype=bool))
    # slip lands on the other actions' cells, so from corner 0 two steps
    # still reach only the cells within two moves: not 5, 7 or 8
    for slip in (0.0, 0.2):
        mdp = build_gridworld(3, 3, slip_prob=slip, horizon=2)
        assert np.array_equal(reachable_states(mdp),
                              np.array([1, 1, 1, 1, 1, 0, 1, 0, 0], dtype=bool))


def test_builder_argument_errors():
    with pytest.raises(ValueError, match="slip_prob"):
        build_gridworld(3, 3, slip_prob=1.0)
    with pytest.raises(ValueError, match="init_state"):
        build_gridworld(2, 2, init_state=4)
    with pytest.raises(ValueError, match="at least one cell"):
        build_gridworld(0, 3)


def test_the_byte_cap_admits_a_table_of_exactly_its_size(monkeypatch):
    # 2 x 1 grid, horizon 1: P is (2, 5, 2) and the step tables (1, 2, 5, 1),
    # 160 and 80 bytes
    monkeypatch.setattr(firl.mdp, "TABLE_BYTES_CAP", 160)
    build_gridworld(2, 1, horizon=1)
    monkeypatch.setattr(firl.mdp, "TABLE_BYTES_CAP", 159)
    with pytest.raises(ValueError, match="160 bytes, past the cap of 159"):
        build_gridworld(2, 1, horizon=1)
    monkeypatch.setattr(firl.mdp, "TABLE_BYTES_CAP", 160)
    with pytest.raises(ValueError, match="step tables"):
        build_gridworld(2, 1, horizon=3)


def test_remap_copies_replacement_rows():
    mdp = build_gridworld(3, 3, slip_prob=0.1, horizon=4)
    out = modify_dynamics(mdp, action_remap={DOWN: STAY})
    assert np.array_equal(out.transitions[:, DOWN, :], mdp.transitions[:, STAY, :])
    # untouched actions and the source mdp stay as they were
    assert np.array_equal(out.transitions[:, RIGHT, :], mdp.transitions[:, RIGHT, :])
    assert mdp.transitions[4, DOWN, 1] == pytest.approx(0.9)


def test_remap_swap_reads_from_a_snapshot():
    mdp = build_gridworld(3, 3, horizon=2)
    out = modify_dynamics(mdp, action_remap={RIGHT: UP, UP: RIGHT})
    assert np.array_equal(out.transitions[:, RIGHT, :], mdp.transitions[:, UP, :])
    assert np.array_equal(out.transitions[:, UP, :], mdp.transitions[:, RIGHT, :])


def test_remap_rejects_out_of_range_action():
    mdp = build_gridworld(2, 2, horizon=2)
    with pytest.raises(ValueError, match="outside"):
        modify_dynamics(mdp, action_remap={0: 9})


def test_slip_override_matches_direct_build():
    mdp = modify_dynamics(build_gridworld(3, 3, horizon=4), slip_override=0.3)
    direct = build_gridworld(3, 3, slip_prob=0.3, horizon=4)
    assert np.allclose(mdp.transitions, direct.transitions, atol=1e-12)


def _loop_reference(width, height, slip):
    # cell by cell, intended effect first, then the other actions' slips
    # in action order
    n, na = width * height, len(GRID_ACTIONS)
    P = np.zeros((n, na, n))
    for s in range(n):
        x, y = s % width, s // width
        dest = []
        for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1), (0, 0)):
            nx, ny = x + dx, y + dy
            inside = 0 <= nx < width and 0 <= ny < height
            dest.append(ny * width + nx if inside else s)
        for a in range(na):
            P[s, a, dest[a]] += 1.0 - slip
            for b in range(na):
                if b != a:
                    P[s, a, dest[b]] += slip / (na - 1)
    return P


@pytest.mark.parametrize("width, height", [(1, 1), (1, 5), (4, 3), (5, 5),
                                           (7, 2), (15, 15)])
def test_transitions_equal_a_per_cell_loop_bit_for_bit(width, height):
    for slip in (0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.7):
        want = _loop_reference(width, height, slip)
        got = build_gridworld(width, height, slip_prob=slip, horizon=2)
        assert got.transitions.tobytes() == want.tobytes()
        if slip < 0.5:
            # the rebuild reads each row's intended effect back from its argmax
            base = build_gridworld(width, height, slip_prob=0.2, horizon=2)
            moved = modify_dynamics(base, slip_override=slip)
            assert moved.transitions.tobytes() == want.tobytes()


def test_slip_override_needs_a_clear_intended_effect():
    noisy = build_gridworld(3, 3, slip_prob=0.55, horizon=2)
    with pytest.raises(ValueError, match="not > 0.5"):
        modify_dynamics(noisy, slip_override=0.1)


def test_empty_remap_is_identity():
    mdp = build_gridworld(2, 2, slip_prob=0.1, horizon=3)
    out = modify_dynamics(mdp, action_remap={})
    assert np.array_equal(out.transitions, mdp.transitions)
    assert out.horizon == mdp.horizon


@settings(max_examples=25, deadline=None)
@given(w=st.integers(1, 4), h=st.integers(1, 4),
       slip=st.floats(0.0, 0.8), init=st.integers(0, 3))
def test_any_gridworld_validates(w, h, slip, init):
    mdp = build_gridworld(w, h, slip_prob=slip, init_state=init % (w * h),
                          horizon=3)
    assert mdp.n_states == w * h
    assert mdp.n_actions == 5
    assert np.allclose(mdp.transitions.sum(axis=2), 1.0, atol=1e-12)
