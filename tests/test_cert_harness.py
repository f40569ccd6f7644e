"""The certification harness certifying itself.

Covers the tentpole machinery end to end: deterministic scenario
sampling, scenario/spec round-trips, certificate evaluation on clean and
planted-violation executions, shrinker convergence to small
counterexamples, repro-artifact byte-identity, and cross-variant
differential agreement.
"""

import json

import pytest

from repro.cert import (
    CERTIFICATES,
    BrokenRateRuleAoptAlgorithm,
    CertScenario,
    ReproArtifact,
    certify,
    differential_certify,
    execution_certificates,
    generate_scenarios,
    replay_artifact,
    sample_scenario,
    shrink_scenario,
)
from repro.core.params import SyncParams
from repro.exec import SweepExecutor

pytestmark = pytest.mark.cert


def check_scenario(scenario, certificate_name):
    """Run a scenario and evaluate one certificate against its summary."""
    summary = scenario.build_spec().run_summary()
    return CERTIFICATES[certificate_name].check_summary(
        summary, scenario.build_params(), scenario.diameter()
    )


def planted_scenario(seed=5, nodes=6, horizon=60.0):
    """A scenario the broken-rate variant provably fails (skew grows ~2εt)."""
    return CertScenario(
        topology_kind="line",
        nodes=nodes,
        algorithm="aopt-broken-rate",
        epsilon=0.1,
        delay_bound=0.5,
        horizon=horizon,
        seed=seed,
        drift_kind="two-group",
        delay_kind="constant",
    )


def violation_oracle(certificate_name):
    def evaluate(scenario):
        verdict = check_scenario(scenario, certificate_name)
        return None if verdict.satisfied else verdict

    return evaluate


class TestFuzzerDeterminism:
    def test_same_seed_same_stream(self):
        first = [s.canonical_json() for s in generate_scenarios(3, 12)]
        second = [s.canonical_json() for s in generate_scenarios(3, 12)]
        assert first == second

    def test_different_seeds_differ(self):
        a = [s.canonical_json() for s in generate_scenarios(0, 12)]
        b = [s.canonical_json() for s in generate_scenarios(1, 12)]
        assert a != b

    def test_sample_is_random_access(self):
        stream = list(generate_scenarios(0, 8))
        assert sample_scenario(0, 5).canonical_json() == stream[5].canonical_json()

    def test_scenarios_compile_to_stable_digests(self):
        for index in range(6):
            scenario = sample_scenario(2, index)
            assert (
                scenario.build_spec().digest() == scenario.build_spec().digest()
            )

    def test_round_trip_through_dict(self):
        for index in range(8):
            scenario = sample_scenario(1, index)
            clone = CertScenario.from_dict(
                json.loads(json.dumps(scenario.as_dict()))
            )
            assert clone == scenario


class TestPlantedDiscrimination:
    """The planted bug is visible only to the skew certificates."""

    def test_broken_rate_violates_theorem_5_5(self):
        verdict = check_scenario(planted_scenario(), "thm-5.5-global-skew")
        assert not verdict.satisfied
        assert verdict.margin < 0

    def test_broken_rate_keeps_the_conditions(self):
        scenario = planted_scenario()
        for name in ("cond1-envelope", "cond2-rate-bounds", "monotonicity"):
            verdict = check_scenario(scenario, name)
            assert verdict.satisfied, f"{name}: {verdict.detail}"

    def test_intact_aopt_passes_the_same_scenario(self):
        scenario = planted_scenario().with_changes(algorithm="aopt")
        verdict = check_scenario(scenario, "thm-5.5-global-skew")
        assert verdict.satisfied, verdict.detail

    def test_planted_algorithm_is_distinctly_named(self):
        params = SyncParams.recommended(0.05, 1.0)
        assert BrokenRateRuleAoptAlgorithm(params).name == "aopt-broken-rate"


class TestShrinker:
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_converges_to_small_counterexample(self, seed):
        result = shrink_scenario(
            planted_scenario(seed=seed),
            violation_oracle("thm-5.5-global-skew"),
        )
        assert result.scenario.nodes <= 4
        assert result.scenario.horizon <= 20.0
        assert not result.verdict.satisfied
        assert result.scenario.topology_kind == "line"

    def test_shrinking_is_deterministic(self):
        first = shrink_scenario(
            planted_scenario(), violation_oracle("thm-5.5-global-skew")
        )
        second = shrink_scenario(
            planted_scenario(), violation_oracle("thm-5.5-global-skew")
        )
        assert first.scenario == second.scenario
        assert first.steps == second.steps
        assert first.evaluations == second.evaluations

    def test_faults_are_dropped_when_irrelevant(self):
        noisy = planted_scenario().with_changes(
            crash_events=((2, 30.0, 40.0), (4, 35.0, 45.0)),
            link_events=((0, 1, 20.0, 25.0),),
        )
        # The plant violates long before the first fault fires, so every
        # fault event is removable noise the ddmin pass must strip.
        result = shrink_scenario(noisy, violation_oracle("thm-5.5-global-skew"))
        assert not result.scenario.crash_events
        assert not result.scenario.link_events

    def test_requires_a_violating_start(self):
        clean = planted_scenario().with_changes(algorithm="aopt")
        with pytest.raises(ValueError):
            shrink_scenario(clean, violation_oracle("thm-5.5-global-skew"))

    def test_respects_evaluation_budget(self):
        budget = 5
        result = shrink_scenario(
            planted_scenario(),
            violation_oracle("thm-5.5-global-skew"),
            max_evals=budget,
        )
        assert result.evaluations <= budget
        assert not result.verdict.satisfied


class TestArtifacts:
    def test_round_trip_and_replay(self, tmp_path):
        result = shrink_scenario(
            planted_scenario(), violation_oracle("thm-5.5-global-skew")
        )
        artifact = ReproArtifact.from_verdict(
            result.scenario, result.verdict, result.steps
        )
        path = tmp_path / "repro.json"
        artifact.save(str(path))
        loaded = ReproArtifact.load(str(path))
        assert loaded == artifact
        assert loaded.to_json().encode() == path.read_bytes()
        replay = replay_artifact(loaded)
        assert replay.reproduced, replay.summary_line()

    def test_unknown_version_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ReproArtifact.from_dict({"version": 99})


class TestCampaigns:
    def test_clean_campaign_certifies(self):
        report = certify(budget=6, seed=0, shrink=False)
        assert report.clean
        assert report.scenarios_run == 6
        skew = report.stats["thm-5.5-global-skew"]
        assert skew.violations == 0
        assert skew.margins, "expected margin samples"
        assert skew.margin_percentiles()["min"] > 0

    def test_planted_campaign_finds_and_shrinks(self):
        report = certify(
            budget=8,
            seed=0,
            algorithm="aopt-broken-rate",
            theorems=["thm-5.5-global-skew"],
            shrink=True,
        )
        assert not report.clean
        [violation] = report.violations
        assert violation["certificate"] == "thm-5.5-global-skew"
        shrunk = violation["shrunk_scenario"]
        assert shrunk["nodes"] <= 4
        assert shrunk["horizon"] <= 20.0

    def test_applicability_gates_fault_scenarios(self):
        report = certify(budget=10, seed=0, shrink=False)
        faulted = sum(
            1 for s in generate_scenarios(0, 10) if s.has_faults
        )
        assert faulted > 0, "seed 0 should draw some fault scenarios"
        assert (
            report.stats["thm-5.5-global-skew"].checks
            == report.scenarios_run - faulted
        )
        assert report.stats["cond1-envelope"].checks == report.scenarios_run

    def test_zero_time_budget_short_circuits(self):
        report = certify(
            budget=20,
            budget_seconds=0.0,
            seed=0,
            theorems=["thm-5.5-global-skew"],
        )
        assert report.scenarios_run == 0
        assert report.clean


def _deterministic(report):
    payload = report.as_dict()
    del payload["duration_seconds"]
    return payload


class TestCampaignDispatch:
    """A campaign is one executor batch unless a time budget applies."""

    @pytest.mark.parametrize(
        "backend,workers", [("serial", 1), ("process-pool", 2)]
    )
    def test_single_dispatch_matches_batched(self, backend, workers):
        def run(budget_seconds):
            return certify(
                budget=16,
                seed=0,
                budget_seconds=budget_seconds,
                executor=SweepExecutor(workers=workers, backend=backend),
            )

        single, batched = run(None), run(1e9)
        assert single.scenarios_run == batched.scenarios_run == 16
        assert _deterministic(single) == _deterministic(batched)

    def test_cold_campaign_starts_one_pool(self, monkeypatch):
        import repro.exec.backend as backend_module

        started = []

        class CountingPool(backend_module.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(backend_module, "ProcessPoolExecutor", CountingPool)
        report = certify(
            budget=16,
            seed=0,
            shrink=False,
            executor=SweepExecutor(workers=2, backend="process-pool"),
        )
        assert report.scenarios_run == 16
        assert len(started) == 1


class TestDifferential:
    def test_variants_agree_on_clean_scenarios(self):
        report = differential_certify(budget=4, seed=0)
        assert report.agree, report.format_text()
        assert report.scenarios_run == 4
        assert set(report.variants) == {"aopt", "aopt-jump", "aopt-ft"}


class TestCertificateInterfaces:
    def test_execution_certificates_cover_both_paths(self):
        scenario = sample_scenario(0, 0)
        spec = scenario.build_spec()
        trace, _ = spec.run()
        summary = spec.run_summary()
        params = scenario.build_params()
        d = scenario.diameter()
        for certificate in execution_certificates():
            if not certificate.applies_to(scenario.algorithm):
                # kllo-stabilization has no static/trace path at all.
                continue
            via_summary = certificate.check_summary(summary, params, d)
            via_trace = certificate.check_trace(trace, params, d)
            assert via_summary.satisfied == via_trace.satisfied
            if certificate.name.startswith("thm-"):
                assert via_summary.measured == pytest.approx(via_trace.measured)

    def test_construction_certificates_run(self):
        params = SyncParams.recommended(0.05, 1.0)
        for name in ("thm-7.2-global-lower", "thm-7.7-local-lower"):
            verdict = CERTIFICATES[name].run(params)
            assert verdict.satisfied, verdict.detail
            assert verdict.margin >= 0
