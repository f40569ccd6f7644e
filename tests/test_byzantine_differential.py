"""Differential regression: the fault-tolerant GCS family under attack.

Pins the headline asymmetry of the Byzantine campaign three ways:

* **fault-free agreement** — ``ftgcs`` is a conservative extension: on
  clean scenarios it certifies exactly like ``aopt``/``aopt-ft`` and the
  differential harness reports full agreement;
* **survival under attack** — on Byzantine campaigns the
  ``ftgcs-byzantine-skew`` certificate partitions the family: ``ftgcs``
  satisfies it on every scenario while the unfiltered variants violate
  it on every scenario (that asymmetry is the *finding*, reported via
  the survival matrix, never as a disagreement);
* **the planted broken variant** — ``ftgcs-trusting`` (per-neighbor
  filter swapped for blind trust) violates, ddmin-shrinks to a tiny
  counterexample, and the committed repro artifact replays
  byte-identically.
"""

import pytest

from repro.cert import (
    CERTIFICATES,
    CertScenario,
    ReproArtifact,
    differential_certify,
    replay_artifact,
    shrink_scenario,
)

pytestmark = [pytest.mark.cert, pytest.mark.byzantine]

FIXTURE = "tests/fixtures/cert/repro-ftgcs-byzantine-skew.json"


def byzantine_attack_scenario(algorithm="ftgcs-trusting", seed=5, nodes=5,
                              horizon=450.0):
    """A star whose slow Byzantine leaf pins the hub behind the fast leaves.

    The corruption magnitude (6x the ftgcs rejection window, set by
    ``CertScenario.build_faults``) keeps every lie outside the window
    filter, so ``ftgcs`` shrugs the attack off while any variant that
    trusts raw neighbor estimates is dragged past the certified bound.
    """
    return CertScenario(
        topology_kind="star",
        nodes=nodes,
        algorithm=algorithm,
        epsilon=0.1,
        delay_bound=0.5,
        horizon=horizon,
        seed=seed,
        drift_kind="two-group-tail",
        delay_kind="constant",
        byzantine_events=((1, 1.0, None),),
    )


def check_scenario(scenario, certificate_name):
    summary = scenario.build_spec().run_summary()
    return CERTIFICATES[certificate_name].check_summary(
        summary, scenario.build_params(), scenario.diameter()
    )


def violation_oracle(certificate_name):
    def evaluate(scenario):
        verdict = check_scenario(scenario, certificate_name)
        return None if verdict.satisfied else verdict

    return evaluate


class TestFaultFreeAgreement:
    def test_ftgcs_agrees_with_the_aopt_family(self):
        report = differential_certify(
            budget=4, seed=0, variants=("aopt", "aopt-ft", "ftgcs")
        )
        assert report.agree, report.format_text()
        assert not report.byzantine
        assert report.survival == {}
        assert report.scenarios_run == 4


class TestByzantineSurvival:
    def test_ftgcs_is_the_sole_survivor(self):
        report = differential_certify(budget=4, seed=0, byzantine=True)
        assert report.byzantine
        assert set(report.variants) == {"aopt", "aopt-ft", "ftgcs"}
        # Survival asymmetry is the expected finding, not a disagreement.
        assert report.agree, report.format_text()
        assert report.survivors("ftgcs-byzantine-skew") == ("ftgcs",)
        matrix = report.survival["ftgcs-byzantine-skew"]
        checks = matrix["ftgcs"][1]
        assert checks > 0
        assert matrix["ftgcs"][0] == checks
        assert matrix["aopt"][0] == 0
        assert matrix["aopt-ft"][0] == 0


class TestPlantedTrustingVariant:
    def test_trusting_variant_violates_where_ftgcs_holds(self):
        attacked = check_scenario(
            byzantine_attack_scenario(), "ftgcs-byzantine-skew"
        )
        assert not attacked.satisfied, attacked.detail
        filtered = check_scenario(
            byzantine_attack_scenario(algorithm="ftgcs"),
            "ftgcs-byzantine-skew",
        )
        assert filtered.satisfied, filtered.detail

    def test_trusting_variant_shrinks_to_a_tiny_counterexample(self):
        result = shrink_scenario(
            byzantine_attack_scenario(),
            violation_oracle("ftgcs-byzantine-skew"),
        )
        assert result.scenario.nodes <= 4
        assert result.scenario.byzantine_events, (
            "the shrunk counterexample must keep the attack"
        )
        assert not result.verdict.satisfied

    def test_committed_artifact_replays_byte_identically(self):
        with open(FIXTURE, "rb") as fh:
            raw = fh.read()
        artifact = ReproArtifact.load(FIXTURE)
        assert artifact.to_json().encode() == raw
        assert artifact.scenario.algorithm == "ftgcs-trusting"
        assert artifact.scenario.byzantine_events
        replay = replay_artifact(artifact)
        assert replay.reproduced, replay.summary_line()
