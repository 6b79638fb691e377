"""The paper's primary contribution as a library.

This subpackage turns the study of Section III-V into reusable pieces:

* :mod:`~repro.core.biases` — the four Aries adaptive routing modes
  (AD0..AD3) expressed as shift/add bias parameters, plus custom biases;
* :mod:`~repro.core.policy` — the biased minimal-vs-non-minimal
  comparison, in per-packet (packet simulator) and fractional-split
  (fluid solver) forms;
* :mod:`~repro.core.experiment` — production / isolated / controlled run
  harness producing :class:`RunRecord` samples;
* :mod:`~repro.core.ensembles` — full-machine-reservation ensembles;
* :mod:`~repro.core.metrics` / :mod:`~repro.core.analysis` — the paper's
  statistical toolkit (z-scores, CCDFs, stalls-to-flits ratios, +-3-sigma
  outlier removal, improvement tables);
* :mod:`~repro.core.advisor` — per-application routing-bias
  recommendations from AutoPerf profiles (the "best practices" engine);
* :mod:`~repro.core.facility` — facility-level default-change studies
  (Figs. 13-14).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".biases": "RoutingMode AD0 AD1 AD2 AD3 VENDOR_MODES mode_by_name",
    ".policy": "PolicyParams minimal_preferred split_fraction effective_shift",
    ".metrics": "zscore zscore_pooled remove_outliers ccdf density percentile_summary "
    "percent_change SampleStats LATENCY_PERCENTILES",
    ".experiment": "CampaignConfig RunRecord run_app_once run_campaign runtimes_by_mode "
    "stats_by_mode resolve_phase mask_endpoint_background",
    ".ensembles": "EnsembleConfig EnsembleResult run_ensemble",
    ".facility": "WindowConfig WindowResult DefaultChangeStudy simulate_production_window "
    "run_default_change_study",
    ".advisor": "Recommendation classify recommend",
    ".analysis": "ImprovementRow improvement_table normalized_by_mode group_span_series "
    "breakdown_rows ratio_samples",
    ".awr": "AwrConfig AwrRunResult run_app_awr run_app_static",
    ".reporting": "bar_chart grouped_bar_chart density_plot series_plot histogram",
    ".interference": "InterferenceEntry interference_matrix format_matrix",
    ".variability": "DispersionStats variability_report explain_variability "
    "format_variability",
    ".calibration": "CalibrationTarget PAPER_TARGETS probe_observables "
    "score_against_paper format_score sweep_parameter",
})
