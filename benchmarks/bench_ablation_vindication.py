"""Ablation C -- passing-pattern vindication on/off.

Vindication removes concrete fault models contradicted by observed passing
patterns.  Off, the hypothesis lists bloat with wrong-polarity models; on,
resolution sharpens at a small theoretical risk under masking.  Timed
kernel: both settings on one device.
"""

import _harness
from repro.campaign.tables import format_table
from repro.core.diagnose import DiagnosisConfig, Diagnoser

CONFIGS = {
    "vindication on": DiagnosisConfig(vindicate=True),
    "vindication off": DiagnosisConfig(vindicate=False),
}


def _mean_hypotheses(netlist, patterns, datalog, config) -> float:
    report = Diagnoser(netlist, config).diagnose(patterns, datalog)
    if not report.candidates:
        return 0.0
    return sum(len(c.hypotheses) for c in report.candidates) / len(report.candidates)


def test_ablation_vindication(benchmark, capsys):
    netlist, patterns, datalog = _harness.representative_trial("alu8", k=2)

    def both():
        for config in CONFIGS.values():
            Diagnoser(netlist, config).diagnose(patterns, datalog)

    benchmark.pedantic(both, rounds=3, iterations=1)

    rows = []
    for label, config in CONFIGS.items():
        for k in (1, 2):
            aggregates = _harness.run_config_with_config(
                "alu8", k=k, config=config, seed=47
            )
            agg = aggregates.get("xcover")
            if agg is None:
                continue
            mean_h = _mean_hypotheses(netlist, patterns, datalog, config)
            rows.append(
                (label, k, agg.n_trials, f"{mean_h:.1f}") + _harness.method_row(agg)
            )
    text = format_table(
        ["vindication", "k", "trials", "hyp/site"] + _harness.METHOD_COLUMNS,
        rows,
        title="Ablation C: passing-pattern vindication",
    )
    with capsys.disabled():
        _harness.emit("ablation_vindication", text)
