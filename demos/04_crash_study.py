"""The full study protocol on a synthetic panel.

Forty assets: twenty whose noise law deteriorates into a crash (Hurst
exponent ramping 0.5 -> 0.9 over the final 30%, ending in a forced 25%
drop) and twenty quiet controls. The pipeline detects the drawdowns,
carves pre-crash and normal-time segments, measures each signal's trend
per segment, and compares the two groups. The scaling exponent separates
cleanly; lag-1 autocorrelation would not on the fat-tail variant.

Writes report.json / report.csv / segments.csv next to this script when
run with --write.
"""

import sys

import phasecrash as pc
from phasecrash.io import synth_corpus, write_report_csv, write_report_json, write_segments_csv

SPEC = {
    "groups": [
        {
            "kind": "dpt_hurst",
            "count": 20,
            "n": 2520,
            "params": {"onset": 0.7, "scale": 0.0015},
            "forced_drop": 0.25,
            "drop_len": 40,
            "id_prefix": "CRASH",
        },
        {
            "kind": "bm",
            "count": 20,
            "n": 2560,
            "params": {"sigma": 0.001},
            "id_prefix": "CTRL",
        },
    ]
}

CONFIG = pc.StudyConfig(
    crash_threshold=0.20,
    lookback=126,
    pre_crash_window=756,
    exclusion_margin=504,
    signals=("volatility", "skewness", "lag1_autocorr", "anomalous_dim", "ghe1"),
    ews_cfg=pc.WindowConfig(window=126, stride=10, tau_grid=(2, 4, 8, 16), orders=(1,)),
)


def main():
    corpus = synth_corpus(SPEC, 4102)
    report = pc.run_study(corpus, CONFIG)
    print(f"{report.n_assets} assets, {report.n_events} crash events")
    print(f"{'signal':16s} {'pre':>7s} {'normal':>7s} {'p':>9s}")
    for name, st in report.signals.items():
        print(
            f"{name:16s} {st.mean_tau_pre:+7.3f} {st.mean_tau_normal:+7.3f} "
            f"{st.p_value:9.2e}{'  <- discriminates' if st.p_value < 0.01 else ''}"
        )
    if "--write" in sys.argv[1:]:
        write_report_json(report, "report.json")
        write_report_csv(report, "report.csv")
        write_segments_csv(report, "segments.csv")
        print("wrote report.json, report.csv, segments.csv")


if __name__ == "__main__":
    main()
