import itertools
import math

import numpy as np
import pytest

from sensoropt import baselines, fim
from sensoropt.solver import Selection, story_numbers
from sensoropt import (
    SingularInformationError,
    TimeGrid,
    build_uniform_shear_model,
    compare,
    compute_elementary_set,
    default_prior,
    exhaustive,
    fixed_configs,
    greedy_forward,
    mc_objective,
    sample_prior,
)


class TestGreedyForward:
    def test_full_budget_places_everything(self, four_dof_fimset):
        result = greedy_forward(four_dof_fimset, 4)
        np.testing.assert_array_equal(result.delta, np.ones(4, dtype=int))

    def test_evaluation_count_formula(self, four_dof_fimset):
        # budget * (2 n - budget) completed kernel calls
        for budget in (1, 2, 3, 4):
            result = greedy_forward(four_dof_fimset, budget)
            assert result.n_evaluations == budget * (2 * 4 - budget)

    def test_nested_supports_and_exact_budget(self, four_dof_fimset):
        previous = np.zeros(4, dtype=int)
        for budget in (1, 2, 3):
            result = greedy_forward(four_dof_fimset, budget)
            assert result.delta.sum() == budget
            assert np.all(result.delta >= previous)
            previous = result.delta

    def test_final_value_of_a_ridge_scored_placement_raises(self):
        # On a one-step record every story's matrix has rank one, so every
        # one-sensor configuration is singular and scored through the ridge;
        # the exact objective of the pick is singular too.
        fimset = compute_elementary_set(
            build_uniform_shear_model(8), sample_prior(default_prior(), 10, seed=1),
            TimeGrid(1, 0.01),
        )
        with pytest.raises(SingularInformationError) as excinfo:
            greedy_forward(fimset, 1)
        assert excinfo.value.sample_index == 0

    def test_within_submodular_guarantee_band(self, four_dof_fimset):
        # measured on the range from the worst to the best configuration
        result = greedy_forward(four_dof_fimset, 2)
        values = []
        for combo in itertools.combinations(range(4), 2):
            delta = np.zeros(4)
            delta[list(combo)] = 1
            values.append(-mc_objective(delta, four_dof_fimset))
        best, worst = max(values), min(values)
        assert result.objective_value >= worst + (1 - 1 / math.e) * (best - worst) - 1e-12

    def test_no_exact_call_scores_the_empty_configuration(self, four_dof_fimset, monkeypatch):
        # Q = 0 in every sample, so the exact objective of the empty
        # configuration always raises; greedy scores it through the ridge
        # alone, and takes its final value from the last round.
        exact_calls = []

        def spy(module):
            inner = module.mc_objective

            def mc_objective(z, fimset):
                exact_calls.append(np.array(z, dtype=float))
                return inner(z, fimset)
            monkeypatch.setattr(module, "mc_objective", mc_objective)

        spy(fim)
        spy(baselines)
        for budget in (1, 2, 3, 4):
            exact_calls.clear()
            result = greedy_forward(four_dof_fimset, budget)
            assert all(z.any() for z in exact_calls)
            assert result.n_evaluations == budget * (2 * 4 - budget)
            # All but round 1's 3 re-scorings of the empty base, which take the ridge.
            assert len(exact_calls) == result.n_evaluations - 3
            assert result.objective_value == -mc_objective(result.delta.astype(float), four_dof_fimset)

    def test_greedy_matches_exhaustive_on_small_instance(self, four_dof_fimset):
        greedy = greedy_forward(four_dof_fimset, 2)
        exact = exhaustive(four_dof_fimset, 2)
        assert greedy.objective_value <= exact.objective_value + 1e-12
        for found in (greedy, exact):
            assert isinstance(found, Selection)
            assert found.stories == story_numbers(found.delta) and len(found.stories) == 2


class TestExhaustive:
    def test_two_story_single_sensor(self):
        model = build_uniform_shear_model(2)
        fimset = compute_elementary_set(
            model, sample_prior(default_prior(), 100, seed=2), TimeGrid(300, 0.01)
        )
        result = exhaustive(fimset, 1)
        np.testing.assert_array_equal(result.delta, [0, 1])
        assert result.n_evaluations == 2

    def test_full_budget(self, four_dof_fimset):
        result = exhaustive(four_dof_fimset, 4)
        np.testing.assert_array_equal(result.delta, np.ones(4, dtype=int))
        assert result.n_evaluations == 1

    def test_dominates_every_other_method(self, four_dof_fimset):
        exact = exhaustive(four_dof_fimset, 2)
        greedy = greedy_forward(four_dof_fimset, 2)
        fixed = fixed_configs(4, 2)
        candidates = [greedy.objective_value] + [
            -mc_objective(delta.astype(float), four_dof_fimset) for delta in fixed.values()
        ]
        assert all(v <= exact.objective_value + 1e-9 for v in candidates)

    def test_cap_refusal_reports_count(self):
        from sensoropt.fim import ElementaryFimSet

        # C(30, 10) = 30,045,015 configurations; refused before the first
        # evaluation, so the (singular) zero matrices are never scored.
        fimset = ElementaryFimSet(np.zeros((1, 30, 5, 5)))
        with pytest.raises(ValueError, match="30045015 configurations exceeds the cap of 1000000"):
            exhaustive(fimset, 10)


class TestFixedConfigs:
    def test_canonical_fifty_story_layouts(self):
        layouts = fixed_configs(50, 20)
        low, high, common = layouts["low"], layouts["high"], layouts["common"]
        assert low.sum() == 20 and set(np.flatnonzero(low) + 1) == set(range(1, 21))
        assert set(np.flatnonzero(high) + 1) == set(range(31, 51))
        expected_common = {3, 5, 8, 10, 13, 15, 18, 20, 23, 25,
                           28, 30, 33, 35, 38, 40, 43, 45, 48, 50}
        assert set(np.flatnonzero(common) + 1) == expected_common

    def test_generalized_spacing(self):
        layouts = fixed_configs(10, 4)
        assert set(np.flatnonzero(layouts["common"]) + 1) == {3, 5, 8, 10}
        assert layouts["low"].sum() == 4 and layouts["high"].sum() == 4


class TestCompare:
    def test_reference_row_is_zero_bits(self, four_dof_fimset):
        delta = np.array([0, 1, 0, 1])
        rows = compare([("optimal", delta, 1)], four_dof_fimset)
        assert rows[0].bits_gain == 0.0

    def test_bits_formula_against_hand_arithmetic(self):
        # two synthetic configurations with known objective difference
        q_scale = math.exp(1.0)
        elems = np.zeros((1, 2, 5, 5))
        elems[0, 0] = np.eye(5)
        elems[0, 1] = q_scale * np.eye(5)
        from sensoropt.fim import ElementaryFimSet

        fimset = ElementaryFimSet(matrices=elems)
        a, b = compare([("a", np.array([0, 1]), 1), ("b", np.array([1, 0]), 1)], fimset)
        # V(a) = 5, V(b) = 0, so b trails the reference by 5 / ln 2 bits
        assert a.objective_value == pytest.approx(5.0, rel=1e-12)
        assert b.bits_gain == pytest.approx(5.0 / math.log(2), rel=1e-12)

    def test_published_arithmetic_check(self):
        # 61.4 vs 57.5 in expected-log-determinant units is 5.6 bits
        assert (61.4 - 57.5) / math.log(2) == pytest.approx(5.63, abs=0.01)
        assert (61.4 - 60.5) / math.log(2) == pytest.approx(1.30, abs=0.01)

    def test_singular_configuration_labeled(self):
        from sensoropt.fim import ElementaryFimSet

        elems = np.zeros((1, 2, 5, 5))
        elems[0, 0] = np.eye(5)
        fimset = ElementaryFimSet(matrices=elems)
        with pytest.raises(SingularInformationError) as excinfo:
            compare([("dead", np.array([0, 1]), 1)], fimset)
        assert excinfo.value.label == "dead"

    def test_non_finite_configuration_rejected(self, four_dof_fimset):
        delta = np.array([0.0, 1.0, np.nan, 1.0])
        with pytest.raises(ValueError, match="must be finite"):
            compare(
                [("optimal", np.array([0, 1, 0, 1]), 1), ("broken", delta, 1)], four_dof_fimset
            )

    def test_near_binary_row_is_scored_and_numbered_as_rounded(self, four_dof_fimset):
        # The check accepts entries within 1e-9 of 0 or 1; the row it
        # accepts is the rounded one.
        near, exact = compare(
            [("near", np.array([1e-10, 1.0, 1.0, -1e-10]), 1), ("exact", np.array([0, 1, 1, 0]), 1)],
            four_dof_fimset,
        )
        assert near.stories == exact.stories == (2, 3)
        assert near.objective_value == exact.objective_value

    def test_rejected_row_names_its_label(self, four_dof_fimset):
        with pytest.raises(ValueError, match="configuration 'half': placement vector is not binary"):
            compare(
                [("optimal", np.array([0, 1, 0, 1]), 1), ("half", np.array([0.5, 0.5, 0, 1]), 1)],
                four_dof_fimset,
            )

    def test_evaluation_counts_merged(self, four_dof_fimset):
        optimal, greedy = compare(
            [("optimal", np.array([0, 1, 0, 1]), 1), ("greedy", np.array([1, 0, 0, 1]), 12)],
            four_dof_fimset,
        )
        assert greedy.n_evaluations == 12
        assert optimal.n_evaluations == 1

    def test_repeated_labels_keep_their_own_values(self, four_dof_fimset):
        deltas = [np.array([1, 1, 0, 0]), np.array([0, 0, 1, 1])]
        rows = compare([("a", d, 1) for d in deltas], four_dof_fimset)
        assert [row.stories for row in rows] == [(1, 2), (3, 4)]
        for row, delta in zip(rows, deltas):
            assert row.objective_value == -mc_objective(delta.astype(float), four_dof_fimset)
        assert rows[0].objective_value != rows[1].objective_value
        assert rows[0].bits_gain == 0.0

    def test_one_evaluation_per_row(self, monkeypatch, four_dof_fimset):
        calls = []
        monkeypatch.setattr(
            baselines, "mc_objective", lambda z, s: calls.append(1) or mc_objective(z, s)
        )
        deltas = [np.array([0, 1, 0, 1]), np.array([1, 1, 0, 0]), np.array([0, 1, 0, 1])]
        rows = compare([("row", d, 1) for d in deltas], four_dof_fimset)
        assert len(calls) == len(rows) == 3
