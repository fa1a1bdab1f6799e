"""One die, every entry point: ``repro diagnose --json``, the service's
``execute_job`` and :func:`~repro.core.diagnose.run_method` write the same
canonical report for the same die, method and oracle setting."""

import json

import pytest

from repro import load_circuit, provision_patterns
from repro.cli import main
from repro.core.diagnose import PER_DIE_METHODS, run_method
from repro.core.report import DiagnosisReport
from repro.serve.executor import execute_job
from repro.serve.protocol import JobSpec, canonical_report_json
from repro.tester.datalog import Datalog
from repro.tester.noise import ingest_text

NOISE = "flip:0.05+dup:0.1"
#: Fixed alu8 k=2 dies: name -> (defect seed, noise spec).  The noisy one
#: is read tolerantly (``--noise-report`` / ``noise_report=True``).
DIES = {"clean-1": (1, None), "clean-2": (2, None), "noisy": (1, NOISE)}


@pytest.fixture(scope="module")
def die_logs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("dies")
    logs = {}
    for name, (seed, noise) in DIES.items():
        path = folder / f"{name}.log"
        argv = ["inject", "alu8", "-k", "2", "--seed", str(seed), "-o", str(path)]
        assert main(argv + (["--noise", noise] if noise else [])) == 0
        logs[name] = path
    return logs


@pytest.mark.parametrize("validate", [False, True], ids=["plain", "oracle"])
@pytest.mark.parametrize("method", PER_DIE_METHODS)
@pytest.mark.parametrize("die", sorted(DIES))
def test_cli_service_and_run_method_agree(
    die_logs, tmp_path, die, method, validate
):
    path = die_logs[die]
    text = path.read_text()
    noisy = DIES[die][1] is not None

    flags = ["--method", method]
    flags += ["--noise-report"] if noisy else []
    flags += ["--validate"] if validate else []
    out = tmp_path / "report.json"
    assert main(["diagnose", "alu8", str(path), "--json", str(out), *flags]) == 0
    cli = canonical_report_json(DiagnosisReport.from_json(out.read_text()))

    # No token, so the batch class runs ungoverned, like the CLI.
    spec = JobSpec(
        circuit="alu8",
        datalog=text,
        method=method,
        qos="batch",
        noise_report=noisy,
        validate=validate,
    )
    service = canonical_report_json(execute_job(spec))

    netlist = load_circuit("alu8")
    patterns = provision_patterns(netlist)
    if noisy:
        sanitized = ingest_text(text)
        datalog, raw = sanitized.datalog, sanitized.raw
    else:
        datalog = raw = Datalog.from_text(text)
    direct = canonical_report_json(
        run_method(
            method, netlist, patterns, datalog, raw=raw if validate else None
        )
    )

    assert cli == service == direct
    assert (json.loads(direct).get("consistency") is not None) == validate
