"""Value types, objective terms, projections."""

import dataclasses
import re
import tracemalloc
import typing
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgd.datagen import SwDynSpec
from dgd.model import (
    Decomposition,
    Hyperparams,
    ObjectiveBreakdown,
    degree_margin,
    in_sa,
    objective,
    project_sa,
    project_sc,
    reconstruct,
)
from dgd.priors import build_cache
from dgd.tensors import FitData

from helpers import pairwise_z, planted_decomposition, symmetric_binary_mask


def _loop_objective(d, adj, mask, z_slices, h):
    """Straight-loop evaluation of every term, kept independent of the library."""
    t_steps, n, _ = adj.shape
    r_lat = d.n_latents
    obs = mask * adj
    recon = np.zeros_like(adj)
    for t in range(t_steps):
        for r in range(r_lat):
            recon[t] += d.signatures[t, r] * d.latents[r]
    if h.gradient_mode == "exact_mask":
        fit = 0.5 * np.sum((mask * (adj - recon)) ** 2)
    else:
        fit = 0.0
        for t in range(t_steps):
            fit += 0.5 * mask[t].sum() * np.sum((obs[t] - recon[t]) ** 2)
    sparsity = h.gamma * sum(d.latents[r].sum() for r in range(r_lat))
    smooth = 0.0
    for t in range(t_steps):
        for r in range(r_lat):
            smooth += d.signatures[t, r] * np.trace(d.latents[r] @ z_slices[t]) / 2.0
    smooth *= h.delta
    temporal = h.mu * sum(
        np.sum((d.signatures[t + 1] - d.signatures[t]) ** 2) for t in range(t_steps - 1)
    )
    overlap = 0.0
    for r in range(r_lat):
        for s in range(r_lat):
            if r != s:
                overlap += np.trace(d.latents[r].T @ d.latents[s])
    overlap *= h.beta
    ridge_c = 0.5 * h.rho * np.sum(d.signatures**2)
    ridge_a = 0.5 * h.eta * np.sum(d.latents**2)
    return fit + sparsity + smooth + temporal + overlap + ridge_c + ridge_a


def test_decomposition_validates_shapes():
    with pytest.raises(ValueError):
        Decomposition(np.zeros((2, 3, 4)), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        Decomposition(np.zeros((2, 3, 3)), np.zeros((5, 3)))
    with pytest.raises(ValueError):
        Decomposition(np.zeros((3, 3)), np.zeros((5, 1)))


def test_decomposition_properties():
    d = planted_decomposition(0, n=4, t=6, r=2)
    assert (d.n_latents, d.n_nodes, d.n_steps) == (2, 4, 6)


def test_hyperparams_defaults_validate():
    Hyperparams().validate()


@pytest.mark.parametrize(
    "kw",
    [
        {"gamma": -0.1},
        {"mu": -1.0},
        {"zeta": 0.0},
        {"lambda_a": 0.0},
        {"lambda_c": -2.0},
        {"eta": -1e-300},
        {"tol_outer": float("-inf")},
        {"n_latents": 0},
        {"inner_iters": 0},
        {"outer_iters": -1},
        {"n_latents": 1.5},
        {"n_latents": True},
        {"gradient_mode": "bogus"},
        {"gamma": float("nan")},
        {"zeta": float("inf")},
        {"gamma": True},
    ],
)
def test_hyperparams_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        Hyperparams(**kw).validate()


# the rules each settings field is held to, written out: (floor, strict) of
# every int and float field
FIELD_RULES = {
    Hyperparams: {
        "n_latents": (1, False), "inner_iters": (1, False), "outer_iters": (0, False),
        "zeta": (0, True), "lambda_a": (0, True), "lambda_c": (0, True),
        **{name: (0, False) for name in
           ("gamma", "delta", "beta", "mu", "rho", "eta", "tol_outer")},
    },
    SwDynSpec: {
        "n_nodes": (2, False), "n_steps": (1, False), "n_signals": (1, False),
        "communities_start": (1, False), "communities_end": (1, False), "seed": (0, False),
        **{name: (0, False) for name in ("p_in", "p_out", "alpha", "noise_sigma")},
    },
}


@pytest.mark.parametrize("record", sorted(FIELD_RULES, key=lambda cls: cls.__name__))
def test_settings_fields_are_plain_types(record):
    # check_fields validates int and float fields by type and leaves str fields
    # to the record: a field of any other type would go unchecked
    hints = typing.get_type_hints(record)
    assert set(hints.values()) <= {int, float, str}, hints
    numeric = {name for name, kind in hints.items() if kind in (int, float)}
    assert numeric == set(FIELD_RULES[record])
    record().validate()


@st.composite
def _bad_setting(draw):
    """(record class, field, bad value, the message validate must raise)."""
    record = draw(st.sampled_from(sorted(FIELD_RULES, key=lambda cls: cls.__name__)))
    hints = typing.get_type_hints(record)
    name = draw(st.sampled_from(sorted(n for n, kind in hints.items() if kind is not str)))
    kind = hints[name]
    low, strict = FIELD_RULES[record][name]
    what = "an integer" if kind is int else "a finite number"
    nonfinite = st.sampled_from([float("nan"), float("inf"), float("-inf")])
    if kind is int:
        below = st.integers(max_value=low - 1)
    else:
        below = st.floats(max_value=0.0 if strict else -1e-300, allow_nan=False,
                          allow_infinity=False)
    value = draw(st.one_of(nonfinite, st.booleans(), below))
    if isinstance(value, bool) or not isinstance(value, int) and not np.isfinite(value):
        return record, name, value, f"{name} must be {what}, got {value!r}"
    return record, name, value, f"{name} must be {'>' if strict else '>='} {low}, got {value}"


@settings(max_examples=300, deadline=None)
@given(_bad_setting())
def test_settings_fields_reject_bad_values_by_type(case):
    record, name, value, message = case
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        record(**{name: value}).validate()


def test_readme_table_names_every_hyperparameter():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Hyperparameters", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(Hyperparams))


def test_readme_generator_fields_name_every_spec_field_and_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Generator fields (`dgd.datagen.SwDynSpec`):", 1)[1].split("\n\n", 1)[0]
    # each field is listed as `name` (default...
    listed = re.findall(r"`(\w+)` \(([^,;)]+)", paragraph)
    want = [(f.name, str(f.default)) for f in dataclasses.fields(SwDynSpec)]
    assert sorted(listed) == sorted(want)


def test_from_dict_names_unknown_key():
    # keys that older configs may carry are unknown keys like any other
    for key in ("bogus", "step_a", "step_c", "penalty_as_step"):
        with pytest.raises(ValueError, match=f"unknown config key: {key}$"):
            Hyperparams.from_dict({key: 1})


def test_from_dict_coerces_json_ints():
    h = Hyperparams.from_dict({"gamma": 1, "n_latents": 3})
    assert isinstance(h.gamma, float) and h.gamma == 1.0
    assert isinstance(h.n_latents, int) and h.n_latents == 3


def test_to_dict_replace_round_trip():
    h = Hyperparams(gamma=0.3, n_latents=4)
    h2 = Hyperparams.from_dict(dataclasses.asdict(h))
    assert h2 == h
    assert h.replace(gamma=0.5).gamma == 0.5
    assert h.gamma == 0.3


def test_reconstruct_hand_example():
    latents = np.zeros((2, 2, 2))
    latents[0, 0, 1] = latents[0, 1, 0] = 1.0
    latents[1, 0, 1] = latents[1, 1, 0] = 3.0
    d = Decomposition(latents, np.array([[2.0, 1.0], [0.0, 4.0]]))
    full = reconstruct(d)
    assert full[0, 0, 1] == 2.0 * 1.0 + 1.0 * 3.0
    assert full[1, 0, 1] == 4.0 * 3.0


def test_objective_zero_at_perfect_fit():
    d = planted_decomposition(4, n=5, t=4, r=2)
    adj = reconstruct(d)
    mask = np.ones_like(adj)
    h = Hyperparams(gamma=0.0, delta=0.0, beta=0.0, mu=0.0, rho=0.0)
    bd = objective(d, FitData.build(adj, mask, h), None, h)
    assert bd.fit < 1e-20
    assert bd.total < 1e-20


@pytest.mark.parametrize("mode", ["exact_mask", "count_weighted"])
def test_objective_matches_loop_oracle(mode):
    rng = np.random.default_rng(11)
    t, n, r = 4, 5, 3
    d = Decomposition(rng.random((r, n, n)), rng.random((t, r)))
    adj = rng.random((t, n, n))
    mask = symmetric_binary_mask(2, t, n)
    signals = rng.standard_normal((t, n, 2))
    cache = build_cache(signals)
    h = Hyperparams(
        n_latents=r,
        gamma=0.3,
        delta=0.7,
        beta=0.4,
        mu=0.6,
        rho=0.2,
        eta=0.5,
        gradient_mode=mode,
    )
    bd = objective(d, FitData.build(adj, mask, h), cache, h)
    want = _loop_objective(d, adj, mask, pairwise_z(signals), h)
    assert abs(bd.total - want) <= 1e-10 * max(abs(want), 1.0)


@pytest.mark.parametrize("mode", ["exact_mask", "count_weighted"])
def test_objective_ignores_unobserved_adjacency(mode):
    # the solver never sees entries where the mask is 0; the objective must not either
    rng = np.random.default_rng(12)
    t, n = 3, 4
    d = planted_decomposition(5, n=n, t=t, r=2)
    adj = rng.random((t, n, n))
    mask = symmetric_binary_mask(6, t, n, frac=0.5)
    h = Hyperparams(gradient_mode=mode)
    cache = build_cache(np.zeros((t, n, 1)))
    bd = objective(d, FitData.build(adj, mask, h), cache, h)
    tampered = adj + 100.0 * (1.0 - mask) * rng.random((t, n, n))
    bd2 = objective(d, FitData.build(tampered, mask, h), cache, h)
    assert bd2.total == bd.total
    bd3 = objective(d, FitData.build(np.where(mask > 0, adj, np.nan), mask, h), cache, h)
    assert bd3.total == bd.total


def test_objective_isolates_each_term():
    rng = np.random.default_rng(13)
    t, n, r = 3, 4, 2
    d = Decomposition(rng.random((r, n, n)), rng.random((t, r)))
    adj = np.zeros((t, n, n))
    mask = np.zeros((t, n, n))
    cache = build_cache(rng.standard_normal((t, n, 3)))
    zero = Hyperparams(gamma=0.0, delta=0.0, beta=0.0, mu=0.0, rho=0.0)
    fit = FitData.build(adj, mask, zero)

    bd = objective(d, fit, cache, zero.replace(gamma=2.0))
    assert np.isclose(bd.sparsity, 2.0 * d.latents.sum())
    assert bd.smoothness == bd.temporal == bd.overlap == bd.ridge_c == 0.0

    bd = objective(d, fit, cache, zero.replace(mu=3.0))
    assert np.isclose(bd.temporal, 3.0 * np.sum(np.diff(d.signatures, axis=0) ** 2))

    bd = objective(d, fit, cache, zero.replace(rho=4.0))
    assert np.isclose(bd.ridge_c, 2.0 * np.sum(d.signatures**2))

    bd = objective(d, fit, cache, zero.replace(eta=2.0))
    assert np.isclose(bd.ridge_a, np.sum(d.latents**2))


def test_objective_shape_mismatch_errors():
    d = planted_decomposition(1, n=3, t=2, r=1)
    h = Hyperparams()
    with pytest.raises(ValueError):
        objective(d, FitData.build(np.zeros((2, 3, 3)), np.zeros((2, 4, 4)), h), None, h)
    with pytest.raises(ValueError):
        objective(d, FitData.build(np.zeros((2, 4, 4)), np.zeros((2, 4, 4)), h), None, h)


def test_project_sa_clips_symmetrizes_and_zeroes_diagonal():
    out = project_sa(np.array([[1.0, -2.0], [4.0, 3.0]]))
    assert np.array_equal(out, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(project_sa(-np.ones((3, 3))), np.zeros((3, 3)))


# finite values whose pairwise sums cannot overflow, subnormals and -0.0 included
_FLOATS = st.floats(-1e300, 1e300, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: hnp.arrays(np.float64, (n, n), elements=_FLOATS)))
def test_project_sa_idempotent_exactly(x):
    p = project_sa(x)
    assert in_sa(p)
    assert np.array_equal(project_sa(p), p)


def test_project_sa_beats_random_feasible_points():
    # Euclidean projection: no feasible competitor may sit closer to the input
    rng = np.random.default_rng(15)
    for _ in range(20):
        x = 3.0 * rng.standard_normal((4, 4))
        p = project_sa(x)
        dp = np.linalg.norm(x - p)
        for _ in range(40):
            y = project_sa(p + rng.standard_normal((4, 4)) * rng.choice([0.01, 0.3, 2.0]))
            assert dp <= np.linalg.norm(x - y) + 1e-12


def test_project_sc_clips_negatives():
    x = np.array([[1.0, -2.0], [-0.5, 3.0]])
    assert np.array_equal(project_sc(x), np.array([[1.0, 0.0], [0.0, 3.0]]))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=3), elements=st.floats(allow_nan=False)))
def test_project_sc_idempotent_and_nonnegative(x):
    p = project_sc(x)
    assert np.all(p >= 0.0)
    assert np.array_equal(project_sc(p), p)


def test_in_sa_detects_violations():
    assert in_sa(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not in_sa(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert not in_sa(np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert not in_sa(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_degree_margin_hand_oracle():
    latents = np.zeros((1, 3, 3))
    latents[0, 0, 1] = latents[0, 1, 0] = 2.0
    d = Decomposition(latents, np.array([[1.0], [0.5]]))
    margin = degree_margin(d, zeta=0.3)
    # node degrees at t=0: (2, 2, 0); at t=1: (1, 1, 0)
    want = np.array([[1.7, 1.7, -0.3], [0.7, 0.7, -0.3]])
    assert np.allclose(margin, want)


def test_degree_margin_holds_no_reconstruction():
    # C (A_r 1) needs (T, N) and (R, N) buffers, far below one (T, N, N) stack
    rng = np.random.default_rng(3)
    d = Decomposition(rng.random((2, 150, 150)), rng.random((60, 2)))
    want = reconstruct(d).sum(axis=2) - 0.1
    tracemalloc.start()
    try:
        margin = degree_margin(d, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(margin, want)
    assert peak <= 0.1 * (d.n_steps * d.n_nodes * d.n_nodes * 8)


def test_breakdown_total_is_the_sum_of_its_terms():
    bd = ObjectiveBreakdown(
        fit=1.0, sparsity=0.5, smoothness=0.25, temporal=2.0, overlap=0.125, ridge_c=1.0, ridge_a=0.5
    )
    assert bd.total == 5.375
    assert dataclasses.replace(bd, fit=3.0).total == 7.375
    assert ObjectiveBreakdown(fit=2.5).total == 2.5
    with pytest.raises(TypeError):
        ObjectiveBreakdown(fit=1.0, total=9.0)
