"""The CLI front ends and the daemon share one model-spec vocabulary.

For each model kind, the spec that ``sweep`` (and, where it applies,
``steady``) builds from its flags and the payload ``query`` sends for the
same flags must canonicalise to the same fingerprint, and a one-shot
``sweep`` must print the rows the daemon answers for that payload.
"""

import pytest

from repro.experiments.cli import _build_query_payload, _model_spec, build_parser, main
from repro.sweep.results import SweepResult
from repro.sweep.spec import canonical_model_spec, spec_fingerprint
from tests.sweep.service.fixture import ServiceFixture

#: kind -> (model flags shared by every front end, sweep axis, metric flags)
CASES = {
    "gspn": (["--net", "mm1k", "--solver", "lu"], "arrive=0.2:1.8:5",
             ["--metric", "mean_tokens:queue"]),
    "phase-type": (
        ["--model", "phase-type", "--stages", "2", "--n-max", "8",
         "--param", "D=0.05"],
        "T=0.2:1.0:4",
        ["--metric", "power", "--metric", "fraction:standby"],
    ),
    "phase-type-batched": (
        ["--model", "phase-type-batched", "--stages", "2", "--n-max", "8"],
        "T=0.2:1.0:4",
        ["--metric", "power"],
    ),
    # no --metric: the default columns must agree too
    "renewal": (["--model", "renewal", "--param", "AR=0.5"],
                "T=0.2:1.0:4", []),
}


def fingerprint(spec):
    return spec_fingerprint(canonical_model_spec(spec))


def sweep_argv(kind):
    flags, axis, metrics = CASES[kind]
    return ["sweep", *flags, "--rate", axis, *metrics, "--quiet"]


def query_payload(kind):
    flags, axis, metrics = CASES[kind]
    args = build_parser().parse_args([
        "query", "--connect", "127.0.0.1:1", "--op", "sweep",
        *flags, "--axis", axis, *metrics,
    ])
    return _build_query_payload(args)


@pytest.mark.parametrize("kind", list(CASES))
def test_sweep_and_query_specs_share_a_fingerprint(kind):
    sweep_spec = _model_spec(build_parser().parse_args(sweep_argv(kind)),
                             "cpu-gspn")
    payload = query_payload(kind)
    assert canonical_model_spec(sweep_spec)["kind"] == kind
    assert fingerprint(sweep_spec) == fingerprint(payload["model"])
    if kind in ("gspn", "phase-type"):
        flags, _, _ = CASES[kind]
        steady_spec = _model_spec(
            build_parser().parse_args(["steady", *flags]), "wsn-cluster"
        )
        assert fingerprint(steady_spec) == fingerprint(payload["model"])


def test_batched_flag_is_the_batched_kind():
    flags, axis, _ = CASES["phase-type"]
    argv = ["sweep", *flags, "--batched", "--batch-size", "3", "--rate", axis]
    spec = _model_spec(build_parser().parse_args(argv), "cpu-gspn")
    assert spec["kind"] == "phase-type-batched"
    assert canonical_model_spec(spec)["batch_size"] == 3


@pytest.fixture(scope="module")
def service():
    with ServiceFixture(telemetry=False) as svc:
        yield svc


@pytest.mark.parametrize("kind", list(CASES))
def test_sweep_prints_the_rows_the_daemon_answers(kind, service, capsys):
    assert main(sweep_argv(kind)) == 0
    out = capsys.readouterr().out
    reply = service.request(query_payload(kind))
    assert reply["kind"] == "result", reply
    assert reply["errors"] == []
    result = SweepResult.assemble(
        reply["axis_names"],
        reply["metric_names"],
        reply["points"],
        dict(enumerate(reply["rows"])),
    )
    title = out.splitlines()[0]
    assert result.render(title=title) in out
