"""The algorithm registry: one name per algorithm, one builder, its traits."""

import pytest

from repro.algorithms import ALGORITHMS, build, names
from repro.cli import build_parser
from repro.core.params import SyncParams
from repro.errors import ConfigurationError
from repro.topology.generators import line

PARAMS = SyncParams.recommended(epsilon=0.05, delay_bound=1.0)


@pytest.mark.parametrize("key", list(ALGORITHMS))
def test_every_key_builds_under_its_own_name(key):
    assert build(key, PARAMS, line(5)).name == key


def test_traits_keep_the_tuples_they_replaced():
    # Each literal is the tuple the trait replaced, in its order.
    assert names("certifiable") == (
        "aopt", "aopt-jump", "aopt-ft", "ftgcs", "gcs-pcls",
        "kllo-dynamic", "aopt-broken-rate", "kllo-frozen", "ftgcs-trusting",
    )
    assert names("byzantine") == ("aopt", "aopt-ft", "ftgcs", "ftgcs-trusting")
    assert names("differential") == ("aopt", "aopt-jump", "aopt-ft")
    assert names("byzantine", exclude="planted") == ("aopt", "aopt-ft", "ftgcs")
    assert names("bounded") == ("aopt", "aopt-jump")
    assert names("planted") == ("aopt-broken-rate", "kllo-frozen", "ftgcs-trusting")
    assert len(names("cli")) == 13
    assert not set(names("cli")) & set(names("planted"))


def test_unknown_name_rejected():
    with pytest.raises(ConfigurationError, match="unknown algorithm 'nonsense'"):
        build("nonsense", PARAMS, line(5))


def _algorithm_action(command):
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    sub = subparsers.choices[command]
    return next(a for a in sub._actions if a.dest == "algorithm")


@pytest.mark.parametrize(
    "command", ["simulate", "suite", "sweep", "faults", "profile"]
)
def test_cli_offers_the_cli_names(command):
    assert tuple(_algorithm_action(command).choices) == names("cli")


def test_certify_offers_the_certifiable_names_and_names_the_plants():
    action = _algorithm_action("certify")
    assert tuple(action.choices) == names("certifiable")
    for planted in names("planted"):
        assert planted in action.help
