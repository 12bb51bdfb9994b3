import json
import random

import numpy as np
import pytest

from test_synthesis import random_connected_grid
from wls_reference import (
    UnobservableError,
    _null_space_buses,
    _svd,
    admittance_from_branch,
    branch_current,
    branch_current_rows,
    noise,
    solve_with_anchors,
    voltage,
    wls_solve,
)
from jointgrid import estimation
from jointgrid.cascade import AvailabilityMask, FailureScenario, data_availability, run_cascade
from jointgrid.entities import parse_entity_id
from jointgrid.estimation import (
    PMU_SIGMA,
    SCADA_SIGMA,
    SIGMA_FLOOR,
    EstimationError,
    StateVector,
    analyse_system,
    compare_models,
    default_true_state,
    measurement_template,
    write_errors_csv,
)
from jointgrid.grid import Branch, Bus, Grid
from jointgrid.idr import IIM, MIIM


def full_mask(grid, pmu_buses=()):
    return AvailabilityMask(
        scada={b: True for b in grid.bus_ids},
        pmu={b: b in pmu_buses for b in grid.bus_ids},
        pmu_equipped=frozenset(pmu_buses),
    )


def two_bus_grid():
    return Grid("two", [Bus(1), Bus(2)], [Branch(1, 2, 0.0, 1.0, 0.0, 1.0, False)])


def scada_at(grid, buses):
    return AvailabilityMask(
        scada={b: b in buses for b in grid.bus_ids}, pmu=dict.fromkeys(grid.bus_ids, False)
    )


# --- admittance ---------------------------------------------------------------


def test_pure_reactance():
    adm = admittance_from_branch(0.0, 1.0, 0.0)
    assert adm.g == 0.0
    assert adm.b == -1.0
    assert adm.b0 == 0.0


def test_pure_resistance():
    adm = admittance_from_branch(1.0, 0.0, 0.0)
    assert adm.g == 1.0
    assert adm.b == 0.0


def test_standard_branch_against_complex_division():
    r, x, b_sh = 0.01938, 0.05917, 0.0528
    adm = admittance_from_branch(r, x, b_sh)
    oracle = 1.0 / complex(r, x)
    assert adm.g == pytest.approx(oracle.real, rel=1e-13)
    assert adm.b == pytest.approx(oracle.imag, rel=1e-13)
    assert adm.b0 == pytest.approx(b_sh / 2.0)


def test_singular_branch_rejected():
    with pytest.raises(Exception, match="singular branch"):
        admittance_from_branch(0.0, 0.0, 0.0)
    grid = Grid("two", [Bus(1), Bus(2)], [Branch(1, 2, 0.0, 0.0, 0.0, 1.0, False)])
    with pytest.raises(EstimationError, match="singular branch: r = x = 0"):
        measurement_template(default_true_state(grid), grid, full_mask(grid, pmu_buses={1}))


@pytest.mark.parametrize(
    "values, message",
    [
        ([1.0, 0.0, 1.0], "twice the bus count"),
        ([1.0, 0.0, np.nan, 0.0], "finite"),
        ([1.0, np.inf, 1.0, 0.0], "finite"),
    ],
    ids=["short", "nan", "inf"],
)
def test_state_vector_refuses_a_wrong_length_or_non_finite_values(values, message):
    with pytest.raises(EstimationError, match=message):
        StateVector([1, 2], values)


# --- current coefficient rows ------------------------------------------------


def test_ohms_law():
    adm = admittance_from_branch(1.0, 0.0, 0.0)
    rows = branch_current_rows(adm)
    current = rows @ np.array([1.0, 0.0, 0.0, 0.0])
    assert current == pytest.approx([1.0, 0.0])


def test_no_voltage_difference_no_series_current():
    rows = branch_current_rows(admittance_from_branch(0.0, 1.0, 0.0))
    current = rows @ np.array([1.0, 0.0, 1.0, 0.0])
    assert current == pytest.approx([0.0, 0.0])


def test_rows_match_complex_oracle_randomized():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        r = rng.uniform(0.001, 1.0)
        x = rng.uniform(0.01, 1.0) * rng.choice([-1.0, 1.0])
        b_sh = rng.uniform(0.0, 0.5)
        va = complex(rng.uniform(0.8, 1.2), rng.uniform(-0.3, 0.3))
        vb = complex(rng.uniform(0.8, 1.2), rng.uniform(-0.3, 0.3))
        adm = admittance_from_branch(r, x, b_sh)
        rows = branch_current_rows(adm)
        from_rows = rows @ np.array([va.real, va.imag, vb.real, vb.imag])
        oracle = complex(adm.g, adm.b) * (va - vb) + complex(adm.g0, adm.b0) * va
        assert abs(from_rows[0] - oracle.real) < 1e-12
        assert abs(from_rows[1] - oracle.imag) < 1e-12


# --- measurement simulation -----------------------------------------------------


def test_all_false_mask_empty_set(ieee14_grid):
    mask = AvailabilityMask(
        scada={b: False for b in ieee14_grid.bus_ids},
        pmu={b: False for b in ieee14_grid.bus_ids},
    )
    template = measurement_template(default_true_state(ieee14_grid), ieee14_grid, mask)
    assert template.sigmas.size == 0
    assert template.J.shape == (0, 2 * len(ieee14_grid.bus_ids))
    assert noise(template, 1).size == 0


def test_fixed_seed_reproducible(ieee14_grid):
    mask = full_mask(ieee14_grid, pmu_buses={2, 13, 10})
    template = measurement_template(default_true_state(ieee14_grid), ieee14_grid, mask)
    first = template.values + noise(template, 7)
    second = template.values + noise(template, 7)
    assert np.array_equal(first, second)
    third = template.values + noise(template, 8)
    assert not np.array_equal(third, first)


def test_noise_sigma_statistics():
    """50 000 seeds' draws, by ``estimation.observations``, whose column k is
    ``values + noise(template, k)`` bit for bit
    (``test_observations_match_per_seed_noise``)."""
    grid = two_bus_grid()
    true_state = StateVector.from_complex([1, 2], [1.0 + 0.0j, 1.0 + 0.0j])
    mask = AvailabilityMask(scada={1: True, 2: False}, pmu={1: False, 2: False})
    template = measurement_template(true_state, grid, mask)
    z = estimation.observations(template, range(50_000))
    deviations = np.empty(100_000)
    deviations[0::2] = z[0] - 1.0
    deviations[1::2] = z[1]
    empirical = deviations.std(ddof=1)
    assert abs(empirical - 0.03) / 0.03 < 0.02


def test_pmu_current_entries_per_incident_branch(ieee14_grid):
    mask = full_mask(ieee14_grid, pmu_buses={2})
    template = measurement_template(default_true_state(ieee14_grid), ieee14_grid, mask)
    currents = template.pmu & (template.fixes != template.bus)
    incident = [
        br for br in ieee14_grid.branches if 2 in (br.from_bus, br.to_bus)
    ]
    assert np.count_nonzero(currents) == len(incident)
    assert np.all(template.bus[currents] == 2)


def test_variances_positive_even_at_zero_sigma():
    grid = two_bus_grid()
    true_state = StateVector.from_complex([1, 2], [1.0 + 0.0j, 0.9 + 0.1j])
    mask = full_mask(grid, pmu_buses={1, 2})
    template = measurement_template(true_state, grid, mask, scada_sigma=0.0, pmu_sigma=0.0)
    assert np.all(template.variances > 0)
    v = voltage(true_state, 1)
    z = template.values + noise(template, 0)
    assert z[0] == v.real and z[1] == v.imag


# --- system assembly --------------------------------------------------------------


def test_single_voltage_row_is_identity_block():
    grid = Grid("one", [Bus(1)], [Branch(1, 1, 0, 1, 0, 1, False)])
    grid.branches.clear()
    true_state = StateVector.from_complex([1], [1.0 + 0.1j])
    mask = AvailabilityMask(scada={1: False}, pmu={1: True})
    template = measurement_template(true_state, grid, mask)
    assert template.J.shape == (2, 2)
    assert np.allclose(template.J, np.eye(2))
    assert template.values == pytest.approx([1.0, 0.1])


def test_current_rows_placed_in_endpoint_columns():
    grid = two_bus_grid()
    adm = admittance_from_branch(0.0, 1.0, 0.0)
    true_state = StateVector.from_complex([1, 2], [1.0 + 0.0j, 0.9 + 0.1j])
    mask = AvailabilityMask(scada={1: False, 2: False}, pmu={1: True, 2: False})
    template = measurement_template(true_state, grid, mask)
    rows = branch_current_rows(adm)
    J = template.J[2:4]  # the current entry follows bus 1's PMU voltage
    assert J.shape == (2, 4)
    assert np.allclose(J[:, 0:2], rows[:, 0:2])
    assert np.allclose(J[:, 2:4], rows[:, 2:4])


def test_row_count_twice_entry_count(ieee14_grid):
    mask = full_mask(ieee14_grid, pmu_buses={2, 13, 10})
    template = measurement_template(default_true_state(ieee14_grid), ieee14_grid, mask)
    J = template.J
    assert J.shape[0] == 2 * len(template.sigmas)
    assert template.variances.shape == (J.shape[0],)
    assert template.values.shape == (J.shape[0],)
    assert template.kept(mask).shape == (J.shape[0],)


# --- WLS ---------------------------------------------------------------------------


def test_identity_system_returns_observations():
    grid = two_bus_grid()
    true_state = StateVector.from_complex([1, 2], [1.0 + 0.2j, 0.9 - 0.1j])
    template = measurement_template(true_state, grid, scada_at(grid, {1, 2}))
    assert np.array_equal(template.J, np.eye(4))
    state, residual = wls_solve(template.J, template.variances, template.values, grid.bus_ids)
    assert np.allclose(state.values, template.values)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_zero_noise_recovery(ieee14_grid):
    mask = full_mask(ieee14_grid, pmu_buses={2, 13, 10})
    true_state = default_true_state(ieee14_grid)
    template = measurement_template(
        true_state, ieee14_grid, mask, scada_sigma=0.0, pmu_sigma=0.0
    )
    state, _ = wls_solve(template.J, template.variances, template.values, ieee14_grid.bus_ids)
    assert np.max(np.abs(state.values - true_state.values)) < 1e-9


def test_overdetermined_matches_normal_equation_oracle():
    rng = np.random.default_rng(5)
    J = rng.normal(size=(4, 2))
    W = rng.uniform(0.5, 2.0, size=4)
    Z = rng.normal(size=4)
    state, _ = wls_solve(J, W, Z, [1])
    w_inv = np.diag(1.0 / W)
    oracle = np.linalg.solve(J.T @ w_inv @ J, J.T @ w_inv @ Z)
    assert np.max(np.abs(state.values - oracle)) < 1e-10


def test_variance_scaling_invariance():
    rng = np.random.default_rng(6)
    J = rng.normal(size=(8, 4))
    W = rng.uniform(0.5, 2.0, size=8)
    Z = rng.normal(size=8)
    base, _ = wls_solve(J, W, Z, [1, 2])
    scaled, _ = wls_solve(J, 37.5 * W, Z, [1, 2])
    assert np.max(np.abs(base.values - scaled.values)) < 1e-10


def test_rank_deficiency_names_buses():
    grid = two_bus_grid()
    true_state = StateVector.from_complex([1, 2], [1.0 + 0.0j, 1.0 + 0.0j])
    template = measurement_template(true_state, grid, scada_at(grid, {1}))
    with pytest.raises(UnobservableError) as err:
        wls_solve(template.J, template.variances, template.values, grid.bus_ids)
    assert err.value.buses == [2]


def test_anchoring_flags_unobservable_buses():
    grid = two_bus_grid()
    true_state = StateVector.from_complex([1, 2], [1.0 + 0.0j, 0.9 + 0.1j])
    template = measurement_template(true_state, grid, scada_at(grid, {1}))
    state, _, anchored = solve_with_anchors(
        template.J, template.variances, template.values, grid.bus_ids
    )
    assert anchored == [2]
    assert voltage(state, 2) == pytest.approx(1.0 + 0.0j)
    assert voltage(state, 1) == pytest.approx(1.0 + 0.0j, abs=1e-6)


# --- comparisons ------------------------------------------------------------------


def test_default_true_state_deterministic(ieee14_grid):
    a = default_true_state(ieee14_grid)
    b = default_true_state(ieee14_grid)
    assert np.array_equal(a.values, b.values)
    mags = np.abs(a.as_complex())
    assert np.all(mags > 0.96) and np.all(mags < 1.04)
    assert np.min(np.abs(a.as_complex() - 1.0)) > 0.05


def reversed_buses(bus_ids, voltages):
    return bus_ids[::-1], voltages[::-1]


def missing_last_bus(bus_ids, voltages):
    return bus_ids[:-1], voltages[:-1]


def extra_bus(bus_ids, voltages):
    return bus_ids + [max(bus_ids) + 1], np.append(voltages, 1.0)


@pytest.mark.parametrize(
    "edit, message",
    [
        (reversed_buses, "at position 0: 14, not 1"),
        (missing_last_bus, "at position 13: none, not 14"),
        (extra_bus, "at position 14: 15, not none"),
    ],
    ids=["reversed", "missing", "extra"],
)
def test_true_state_must_name_the_grids_buses_in_order(ieee14_grid, edit, message):
    """Estimates follow the grid's bus order, so a true state in any other
    order (or over other buses) would be compared bus by bus with the wrong
    estimates; it is refused, naming the first bus that differs."""
    state = default_true_state(ieee14_grid)
    true_state = StateVector.from_complex(*edit(ieee14_grid.bus_ids, state.as_complex()))
    with pytest.raises(EstimationError, match=message):
        compare_models(ieee14_grid, {"full": full_mask(ieee14_grid)}, true_state, seeds=range(20))


def test_identical_masks_identical_errors(ieee14_grid):
    mask = full_mask(ieee14_grid, pmu_buses={2, 13, 10})
    true_state = default_true_state(ieee14_grid)
    result = compare_models(
        ieee14_grid, {"a": mask, "b": mask}, true_state, seeds=range(5)
    )
    assert np.max(np.abs(result.errors["a"] - result.errors["b"])) < 1e-12


def test_precision_ordering_pmu_beats_scada(ieee14_grid):
    pmu_buses = {2, 13, 10}
    mask = full_mask(ieee14_grid, pmu_buses=pmu_buses)
    true_state = default_true_state(ieee14_grid)
    result = compare_models(ieee14_grid, {"m": mask}, true_state, seeds=range(100))
    means = dict(zip(result.bus_ids, result.errors["m"].mean(axis=0)))
    pmu_mean = np.mean([means[b] for b in sorted(pmu_buses)])
    scada_only = [b for b in ieee14_grid.bus_ids if b not in pmu_buses]
    scada_mean = np.mean([means[b] for b in scada_only])
    assert pmu_mean < scada_mean


def test_estimator_unbiased_at_fixed_seeds(ieee14_grid):
    # Signed per-component errors over many seeds stay within three standard
    # errors of zero (checked bus-wise on both components).
    mask = full_mask(ieee14_grid, pmu_buses={2, 13, 10})
    true_state = default_true_state(ieee14_grid)
    n_seeds = 1000
    template = measurement_template(true_state, ieee14_grid, mask)
    signed = np.zeros((n_seeds, 2 * len(ieee14_grid.bus_ids)))
    for row, seed in enumerate(range(n_seeds)):
        Z = template.values + noise(template, seed)
        state, _ = wls_solve(template.J, template.variances, Z, ieee14_grid.bus_ids)
        signed[row] = state.values - true_state.values
    mean = signed.mean(axis=0)
    stderr = signed.std(axis=0, ddof=1) / np.sqrt(n_seeds)
    assert np.all(np.abs(mean) <= 3.0 * stderr)


def test_errors_csv_format(tmp_path, ieee14_grid):
    mask = full_mask(ieee14_grid, pmu_buses={2, 13, 10})
    result = compare_models(
        ieee14_grid, {"miim": mask}, default_true_state(ieee14_grid), seeds=range(3)
    )
    out = tmp_path / "errors.csv"
    write_errors_csv(result, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "bus,model,mean_abs_err,std_err,flagged_unobservable"
    assert len(lines) == 1 + len(ieee14_grid.bus_ids)


# --- batched comparison against the per-seed path ------------------------------


SCENARIOS_118 = ("ieee118_substation_damage.json", "ieee118_gateway_sadm_failure.json")


@pytest.fixture(scope="module")
def scenario_masks_118(ieee118, fixtures_dir):
    """Case-1 availability masks of both models for each shipped 118-bus scenario."""
    masks = {}
    for name in SCENARIOS_118:
        killed = json.loads((fixtures_dir / name).read_text())["killed"]
        failure = FailureScenario.of([parse_entity_id(text) for text in killed])
        masks[name] = {}
        for model in (MIIM, IIM):
            rule_set = ieee118.rule_set(model, 1)
            trace = run_cascade(ieee118, rule_set, failure)
            masks[name][model] = data_availability(trace.final_state(), ieee118, rule_set)
    return masks


def union_mask(grid, masks):
    return AvailabilityMask(
        scada={b: any(m.scada.get(b, False) for m in masks.values()) for b in grid.bus_ids},
        pmu={b: any(m.pmu.get(b, False) for m in masks.values()) for b in grid.bus_ids},
    )


def per_seed_comparison(grid, masks, true_state, seeds):
    """The unbatched reference: draw under the union mask, keep each mask's
    rows, and solve every (seed, model) on its own."""
    template = measurement_template(true_state, grid, union_mask(grid, masks))
    errors = {model: [] for model in masks}
    chi2 = {model: [] for model in masks}
    anchored = {model: set() for model in masks}
    for seed in seeds:
        shared = template.values + noise(template, seed)
        for model, mask in masks.items():
            kept = template.kept(mask)
            state, residual, flagged = solve_with_anchors(
                template.J[kept], template.variances[kept], shared[kept], grid.bus_ids
            )
            errors[model].append(np.abs(state.as_complex() - true_state.as_complex()))
            chi2[model].append(residual**2)
            anchored[model].update(flagged)
    return errors, chi2, anchored


def check_against_per_seed(grid, masks, true_state, seeds):
    result = compare_models(grid, masks, true_state, seeds)
    errors, chi2, anchored = per_seed_comparison(grid, masks, true_state, seeds)
    for model in masks:
        assert result.errors[model].shape == (len(seeds), len(grid.bus_ids))
        assert np.max(np.abs(result.errors[model] - np.array(errors[model]))) < 1e-9
        assert result.chi2[model] == pytest.approx(chi2[model], rel=1e-6)
        assert result.anchored[model] == anchored[model]
    return result


def test_batched_comparison_matches_per_seed_14(ieee14_grid):
    masks = {
        "full": full_mask(ieee14_grid, pmu_buses={2, 10, 13}),
        "degraded": AvailabilityMask(
            scada={b: b not in (4, 9) for b in ieee14_grid.bus_ids},
            pmu={b: b in (2, 13) for b in ieee14_grid.bus_ids},
        ),
    }
    check_against_per_seed(ieee14_grid, masks, default_true_state(ieee14_grid), range(20))


@pytest.mark.parametrize("scenario", SCENARIOS_118)
def test_batched_comparison_matches_per_seed_118(ieee118_grid, scenario_masks_118, scenario):
    result = check_against_per_seed(
        ieee118_grid, scenario_masks_118[scenario], default_true_state(ieee118_grid), range(6)
    )
    # The binary model's larger loss needs anchors in both scenarios.
    assert result.anchored[IIM]


def test_batched_comparison_matches_per_seed_with_no_measurement(ieee14_grid):
    """A mask that delivers nothing anchors every bus, on both paths."""
    bus_ids = ieee14_grid.bus_ids
    dark = AvailabilityMask(scada=dict.fromkeys(bus_ids, False), pmu=dict.fromkeys(bus_ids, False))
    result = check_against_per_seed(ieee14_grid, {"dark": dark}, default_true_state(ieee14_grid), range(5))
    assert result.anchored["dark"] == set(bus_ids)
    assert result.rows["dark"] == 2 * len(bus_ids)


def test_batched_comparison_analyses_each_mask_once(ieee118_grid, scenario_masks_118, monkeypatch):
    counts = {"template": 0, "analyse": 0, "lstsq": 0}
    template, analyse, lstsq = estimation.measurement_template, estimation.analyse_system, np.linalg.lstsq

    def counting_template(*args, **kwargs):
        counts["template"] += 1
        return template(*args, **kwargs)

    def counting_analyse(*args, **kwargs):
        counts["analyse"] += 1
        return analyse(*args, **kwargs)

    def counting_lstsq(*args, **kwargs):
        counts["lstsq"] += 1
        return lstsq(*args, **kwargs)

    def no_wls(*args, **kwargs):
        raise AssertionError("compare_models must not solve per seed")

    monkeypatch.setattr(estimation, "measurement_template", counting_template)
    monkeypatch.setattr(estimation, "analyse_system", counting_analyse)
    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    # The per-seed reference (``wls_reference``) solves each seed by SVD.
    monkeypatch.setattr(np.linalg, "svd", no_wls)
    masks = scenario_masks_118["ieee118_substation_damage.json"]
    compare_models(ieee118_grid, masks, default_true_state(ieee118_grid), range(10))
    assert counts == {"template": 1, "analyse": len(masks), "lstsq": len(masks)}


def reference_draws(true_state, grid, mask, seed, scada_sigma=SCADA_SIGMA, pmu_sigma=PMU_SIGMA):
    """One size-2 normal draw per entry, in draw order, scanning every
    branch for each PMU bus.  Each entry is rebuilt on its own: its two
    design rows (the identity at its bus, or the branch current rows at its
    two endpoints), its noisy value, its floored variance, its gate
    ``(pmu, bus)`` and the bus it fixes."""
    rng = np.random.default_rng(seed)
    col = {bus: 2 * i for i, bus in enumerate(grid.bus_ids)}
    entries = []

    def noisy(pmu, bus, fixed, blocks, value, sigma):
        noise = rng.normal(0.0, sigma, size=2)
        rows = np.zeros((2, 2 * len(col)))
        for block_bus, block in blocks:
            rows[:, col[block_bus] : col[block_bus] + 2] = block
        z = np.array([value.real + noise[0], value.imag + noise[1]])
        entries.append((rows, z, max(sigma, SIGMA_FLOOR) ** 2, (pmu, bus), fixed))

    for bus in sorted(true_state.bus_ids):
        if mask.scada.get(bus, False):
            v = voltage(true_state, bus)
            noisy(False, bus, bus, [(bus, np.eye(2))], v, scada_sigma * abs(v))
    for bus in sorted(true_state.bus_ids):
        if not mask.pmu.get(bus, False):
            continue
        v = voltage(true_state, bus)
        noisy(True, bus, bus, [(bus, np.eye(2))], v, pmu_sigma * abs(v))
        for branch in grid.branches:
            if bus not in (branch.from_bus, branch.to_bus):
                continue
            other = branch.to_bus if bus == branch.from_bus else branch.from_bus
            adm = admittance_from_branch(branch.r, branch.x, branch.b_sh)
            current = branch_current(adm, v, voltage(true_state, other))
            rows = branch_current_rows(adm)
            blocks = [(bus, rows[:, 0:2]), (other, rows[:, 2:4])]
            noisy(True, bus, other, blocks, current, pmu_sigma * abs(current))
    return entries


def test_template_matches_per_entry_draws(ieee14_grid, ieee118_grid, scenario_masks_118):
    model_masks_118 = scenario_masks_118[SCENARIOS_118[0]]
    cases = [
        (ieee14_grid, full_mask(ieee14_grid, pmu_buses={2, 10, 13}), {}, {}),
        (ieee14_grid, full_mask(ieee14_grid, pmu_buses={2, 10, 13}),
         {"scada_sigma": 0.0, "pmu_sigma": 0.0}, {}),
        (ieee118_grid, union_mask(ieee118_grid, model_masks_118), {}, model_masks_118),
    ]
    for grid, mask, sigmas, narrower in cases:
        true_state = default_true_state(grid)
        template = measurement_template(true_state, grid, mask, **sigmas)
        for seed in (0, 1, 99):
            reference = reference_draws(true_state, grid, mask, seed, **sigmas)
            rows, z, variances, gates, fixes = zip(*reference)
            assert np.array_equal(template.J, np.concatenate(rows))
            assert np.array_equal(template.values + noise(template, seed), np.concatenate(z))
            assert np.array_equal(template.variances, np.repeat(variances, 2))
            assert list(zip(template.pmu.tolist(), template.bus.tolist())) == list(gates)
            assert template.fixes.tolist() == list(fixes)
        # A narrower mask keeps exactly the entries whose gating flag it sets.
        for narrow in narrower.values():
            delivered = [(narrow.pmu if pmu else narrow.scada).get(bus, False) for pmu, bus in gates]
            assert np.array_equal(template.kept(narrow), np.repeat(delivered, 2))


def random_grid_case(seed):
    """One of ``test_synthesis``'s random connected grids (r = 0.01,
    x = 0.1, zero shunt; a random extra branch may run parallel to another),
    with branch 0 doubled by a parallel branch that has a shunt.  Its true
    state puts one bus at |V| = 0, so that bus's voltage sigmas are 0 and
    their variances the floor.  Returns the grid, the true state, a mask
    with SCADA everywhere and PMUs at a few buses, and two narrower masks."""
    rng = random.Random(seed)
    grid = random_connected_grid(rng, rng.randint(8, 16))
    first = grid.branches[0]
    grid.branches.append(Branch(first.from_bus, first.to_bus, 0.02, 0.3, 0.05, 1.0, False))
    voltages = default_true_state(grid, seed).as_complex()
    voltages[rng.randrange(len(voltages))] = 0.0
    true_state = StateVector.from_complex(grid.bus_ids, voltages)
    pmu_buses = set(rng.sample(grid.bus_ids, 4)) | {first.from_bus}
    narrower = {
        name: AvailabilityMask(
            scada={b: rng.random() < 0.7 for b in grid.bus_ids},
            pmu={b: b in pmu_buses and rng.random() < 0.6 for b in grid.bus_ids},
        )
        for name in ("a", "b")
    }
    return grid, true_state, full_mask(grid, pmu_buses), narrower


def check_template_against_draws(grid, true_state, mask, narrower):
    """``test_template_matches_per_entry_draws``'s checks, and
    ``observations`` column k against ``values + noise(seeds[k])``."""
    template = measurement_template(true_state, grid, mask)
    seeds = [0, 1, 99, 2**40]
    observed = estimation.observations(template, seeds)
    assert observed.shape == (template.values.size, len(seeds))
    for k, seed in enumerate(seeds):
        rows, z, variances, gates, fixes = zip(*reference_draws(true_state, grid, mask, seed))
        assert np.array_equal(template.J, np.concatenate(rows))
        assert np.array_equal(template.values + noise(template, seed), np.concatenate(z))
        assert np.array_equal(observed[:, k], template.values + noise(template, seed))
        assert np.array_equal(template.variances, np.repeat(variances, 2))
        assert list(zip(template.pmu.tolist(), template.bus.tolist())) == list(gates)
        assert template.fixes.tolist() == list(fixes)
    for narrow in narrower.values():
        delivered = [(narrow.pmu if pmu else narrow.scada).get(bus, False) for pmu, bus in gates]
        assert np.array_equal(template.kept(narrow), np.repeat(delivered, 2))
    return template


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_template_matches_per_entry_draws_on_random_grids(seed):
    grid, true_state, mask, narrower = random_grid_case(seed)
    template = check_template_against_draws(grid, true_state, mask, narrower)
    pairs = [tuple(sorted((br.from_bus, br.to_bus))) for br in grid.branches]
    assert len(set(pairs)) < len(pairs)  # parallel branches
    assert (template.sigmas == 0.0).any() and (template.variances == SIGMA_FLOOR**2).any()


def test_observations_match_per_seed_noise(ieee14_grid, ieee118_grid, scenario_masks_118):
    model_masks_118 = scenario_masks_118[SCENARIOS_118[1]]
    check_template_against_draws(
        ieee14_grid, default_true_state(ieee14_grid), full_mask(ieee14_grid, {2, 10, 13}), {}
    )
    check_template_against_draws(
        ieee118_grid, default_true_state(ieee118_grid), union_mask(ieee118_grid, model_masks_118),
        model_masks_118,
    )


def test_chi_square_mean_matches_degrees_of_freedom(ieee14_grid):
    # With weights equal to the inverse noise variances the weighted residual
    # follows a chi-square law with rows - cols degrees of freedom.
    mask = full_mask(ieee14_grid, pmu_buses={2, 10, 13})
    result = compare_models(
        ieee14_grid, {"m": mask}, default_true_state(ieee14_grid), seeds=range(400)
    )
    dof = result.rows["m"] - result.cols
    assert dof == 24
    chi2 = result.chi2["m"]
    assert chi2.shape == (400,)
    stderr = chi2.std(ddof=1) / np.sqrt(chi2.size)
    assert abs(chi2.mean() - dof) < 4.0 * stderr


def explicit_chi2(system, kept, observed, solution):
    """Each seed's weighted residual sum of squares, ``||A x - Y||^2``."""
    anchors = np.repeat(system.anchor_y[:, None], observed.shape[1], axis=1)
    Y = np.vstack([observed[kept] * system.scale[:, None], anchors])
    return np.sum((system.A @ solution - Y) ** 2, axis=0)


@pytest.mark.parametrize("scenario", SCENARIOS_118)
def test_chi_square_from_the_solve_matches_the_explicit_residual(ieee118_grid, scenario_masks_118, scenario):
    masks = scenario_masks_118[scenario]
    template = measurement_template(default_true_state(ieee118_grid), ieee118_grid, union_mask(ieee118_grid, masks))
    observed = estimation.observations(template, range(8))
    for mask in masks.values():
        kept = template.kept(mask)
        system, solution, chi2 = estimation.solve(template, kept, observed, ieee118_grid.bus_ids)
        assert system.A.shape[0] > system.A.shape[1]
        assert chi2 == pytest.approx(explicit_chi2(system, kept, observed, solution), rel=1e-9)


def test_chi_square_of_a_square_system_is_the_explicit_residual(ieee14_grid):
    """A mask that delivers nothing leaves one anchor row per state
    component; ``lstsq`` returns no residuals, so the explicit form is used."""
    bus_ids = ieee14_grid.bus_ids
    dark = AvailabilityMask(scada=dict.fromkeys(bus_ids, False), pmu=dict.fromkeys(bus_ids, False))
    template = measurement_template(default_true_state(ieee14_grid), ieee14_grid, full_mask(ieee14_grid, {2}))
    observed = estimation.observations(template, range(4))
    kept = template.kept(dark)
    system, solution, chi2 = estimation.solve(template, kept, observed, bus_ids)
    assert system.A.shape == (2 * len(bus_ids), 2 * len(bus_ids))
    anchors = np.repeat(system.anchor_y[:, None], 4, axis=1)
    assert np.linalg.lstsq(system.A, anchors, rcond=None)[1].size == 0
    assert chi2.shape == (4,)
    assert np.array_equal(chi2, explicit_chi2(system, kept, observed, solution))


@pytest.mark.parametrize(
    "factor, message",
    [(1e308, "^state must be finite$"), (1e300, "^chi-square must be finite$")],
    ids=["state", "chi2"],
)
def test_solve_refuses_a_non_finite_solution(ieee14_grid, factor, message):
    """Finite observations whose weighted values overflow give no state:
    ``solve`` raises rather than return infinities, in the solution (×1e308)
    or, with a finite solution, in the chi-square (×1e300) on the
    SCADA-only full mask, whose square system takes the explicit sum."""
    mask = full_mask(ieee14_grid)
    template = measurement_template(default_true_state(ieee14_grid), ieee14_grid, mask)
    observed = estimation.observations(template, range(2)) * factor
    assert np.isfinite(observed).all()
    with np.errstate(over="ignore"), pytest.raises(EstimationError, match=message):
        estimation.solve(template, template.kept(mask), observed, ieee14_grid.bus_ids)


# --- observability from the measurement graph against the SVD oracle ----------


def check_graph_anchors_match_svd(grid, masks):
    """For each mask's noise-free set: the graph rule anchors exactly the
    null-space buses of the unanchored system, and the anchored system has
    full column rank.  Returns how many masks needed anchors."""
    true_state = default_true_state(grid)
    anchored_masks = 0
    for mask in masks:
        template = measurement_template(true_state, grid, mask)
        kept = template.kept(mask)
        assert kept.all()
        system = analyse_system(template, kept, grid.bus_ids)
        J, W = template.J, template.variances
        _, _, vt, rank = _svd(J / np.sqrt(W)[:, None])
        assert system.anchored == _null_space_buses(vt[rank:], grid.bus_ids)
        assert np.linalg.matrix_rank(system.A) == system.A.shape[1]
        anchored_masks += bool(system.anchored)
    return anchored_masks


def distinct_masks(network, kill_sets):
    """The distinct availability masks of every kill set under every rule set."""
    masks = {}
    for rule_set in network.rule_sets.values():
        for killed in kill_sets:
            trace = run_cascade(network, rule_set, FailureScenario.of(killed))
            mask = data_availability(trace.final_state(), network, rule_set)
            masks[tuple(mask.scada.items()), tuple(mask.pmu.items())] = mask
    return list(masks.values())


def test_graph_observability_matches_svd_under_every_single_failure_14(ieee14, ieee14_grid):
    masks = distinct_masks(ieee14, [[entity] for entity in ieee14.entity_order])
    assert check_graph_anchors_match_svd(ieee14_grid, masks) > 0


def test_graph_observability_matches_svd_on_random_failures_118(ieee118, ieee118_grid):
    rng = random.Random(7)
    entities = list(ieee118.entity_order)
    kill_sets = [rng.sample(entities, rng.randint(1, 8)) for _ in range(4)]
    masks = distinct_masks(ieee118, kill_sets)
    assert check_graph_anchors_match_svd(ieee118_grid, masks) > 0


def test_comparison_runs_no_svd(ieee118_grid, scenario_masks_118, monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("observability must come from the measurement graph")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg, "matrix_rank", no_svd)
    true_state = default_true_state(ieee118_grid)
    for scenario in SCENARIOS_118:
        result = compare_models(ieee118_grid, scenario_masks_118[scenario], true_state, range(3))
        assert result.anchored[IIM]
