"""``tools/serve.py`` command line: the ``--model`` spec parser and the
serving-flag defaults."""

import argparse
import inspect

import pytest

from repro.engine import PlanServer
from tools.serve import MODEL_OPTIONS, build_parser, main, parse_model_spec


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


# values that parse as strings but would fail int(), PlanServer, load_plan,
# the socket bind or the drain once the server starts, or that would time
# out every request; they must fail the command line instead
@pytest.mark.parametrize("argv", [
    ["--model", "r=plan.npz:shards=two"],
    ["--model", "r=plan.npz:shards=0"],
    ["--model", "r=plan.npz:mode=fixed"],
    ["--model", "r=plan.npz", "--shards", "0"],
    ["--model", "r=plan.npz", "--max-batch", "0"],
    ["--model", "r=plan.npz", "--queue-size", "4", "--max-batch", "8"],
    ["--model", "r=plan.npz", "--request-timeout-s", "0"],
    ["--model", "r=plan.npz", "--request-timeout-s", "-1"],
    ["--model", "r=plan.npz", "--request-timeout-s", "nan"],
    ["--model", "r=plan.npz", "--request-timeout-s", "inf"],
    ["--model", "r=plan.npz", "--drain-timeout-s", "0"],
    ["--model", "r=plan.npz", "--drain-timeout-s", "nan"],
    ["--model", "r=plan.npz", "--drain-timeout-s", "inf"],
    ["--model", "r=plan.npz", "--port", "-1"],
    ["--model", "r=plan.npz", "--port", "65536"],
], ids=["shards-two", "shards-0", "mode-fixed", "flag-shards-0",
        "max-batch-0", "queue-below-batch", "request-timeout-0",
        "request-timeout-negative", "request-timeout-nan",
        "request-timeout-inf", "drain-timeout-0", "drain-timeout-nan",
        "drain-timeout-inf", "port-negative", "port-above-65535"])
def test_invalid_value_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)                    # never reaches the server start
    assert info.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_valid_values_still_parse():
    args = build_parser().parse_args(
        ["--model", "r=plan.npz:mode=int:shards=3", "--shards", "1",
         "--port", "0", "--request-timeout-s", "0.5",
         "--drain-timeout-s", "2"])
    assert args.model == [("r", "plan.npz", {"mode": "int", "shards": "3"})]
    assert (args.shards, args.port, args.request_timeout_s,
            args.drain_timeout_s) == (1, 0, 0.5, 2.0)


# flags of the removed result cache, autoscaler, process shards and
# batch hold
@pytest.mark.parametrize("flag", ["--result-cache", "--max-shards",
                                  "--backend", "--max-wait-ms"])
def test_removed_flag_is_refused(capsys, flag):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["--model", "r=plan.npz", flag, "4"])
    assert info.value.code == 2
    assert flag in capsys.readouterr().err


def test_serving_flag_defaults_are_plan_server_defaults():
    args = build_parser().parse_args(["--model", "r=plan.npz"])
    defaults = {name: param.default for name, param
                in inspect.signature(PlanServer).parameters.items()}
    assert (args.shards, args.max_batch, args.queue_size) == (
        defaults["n_shards"], defaults["max_batch"], defaults["queue_size"])
