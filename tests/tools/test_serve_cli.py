"""``tools/serve.py`` command line: the ``--model`` spec parser and the
serving-flag defaults."""

import argparse
import inspect

import pytest

from repro.engine import PlanServer
from tools.serve import MODEL_OPTIONS, build_parser, parse_model_spec


def test_good_spec_splits_name_path_and_options():
    assert parse_model_spec("resnet=plans/r8.npz:mode=int:shards=3") \
        == ("resnet", "plans/r8.npz", {"mode": "int", "shards": "3"})
    assert parse_model_spec("r=plan.npz") == ("r", "plan.npz", {})


# a typo, a flag of the removed plan-graph compiler, and the removed
# autoscaler's pool bound
@pytest.mark.parametrize("key,value", [("shard", "3"), ("compile", "true"),
                                       ("max_shards", "4")])
def test_unknown_option_is_refused_naming_the_allowed_keys(key, value):
    with pytest.raises(argparse.ArgumentTypeError) as info:
        parse_model_spec(f"r=plan.npz:{key}={value}")
    message = str(info.value)
    assert repr(key) in message
    for allowed in MODEL_OPTIONS:
        assert allowed in message


@pytest.mark.parametrize("spec", ["r=plan.npz:mode", "r=plan.npz:mode=int:"])
def test_malformed_option_item_is_refused(spec):
    with pytest.raises(argparse.ArgumentTypeError, match="key=value"):
        parse_model_spec(spec)


@pytest.mark.parametrize("spec", ["=plan.npz", "r=", "r=:mode=int",
                                  "no-equals-sign"])
def test_empty_name_or_path_is_refused(spec):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_model_spec(spec)


def test_parser_exits_on_an_unknown_option():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--model", "r=plan.npz:shard=3"])


# flags of the removed result cache and autoscaler
@pytest.mark.parametrize("flag", ["--result-cache", "--max-shards"])
def test_removed_flag_is_refused(capsys, flag):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--model", "r=plan.npz", flag, "4"])
    assert flag in capsys.readouterr().err


def test_serving_flag_defaults_are_plan_server_defaults():
    args = build_parser().parse_args(["--model", "r=plan.npz"])
    defaults = {name: param.default for name, param
                in inspect.signature(PlanServer).parameters.items()}
    assert (args.shards, args.backend, args.max_batch, args.max_wait_ms,
            args.queue_size) == (defaults["n_shards"], defaults["backend"],
                                 defaults["max_batch"],
                                 defaults["max_wait_ms"],
                                 defaults["queue_size"])
