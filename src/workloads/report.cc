#include "workloads/report.h"

#include <cstdio>
#include <utility>

namespace dlacep {
namespace workloads {

namespace {
RowObserver& Observer() {
  static RowObserver observer;
  return observer;
}
}  // namespace

void SetRowObserver(RowObserver observer) {
  Observer() = std::move(observer);
}

ExperimentRow RunDlacepExperiment(const std::string& label,
                                  const Pattern& pattern,
                                  const EventStream& train,
                                  const EventStream& test, FilterKind kind,
                                  const DlacepConfig& config) {
  ExperimentRow row;
  row.label = label;
  row.filter = FilterKindName(kind);

  BuiltDlacep built = BuildDlacep(pattern, train, kind, config);
  row.train_seconds = built.train_seconds;
  row.entity_f1 = built.test_metrics.f1();
  row.train_epochs = built.train_result.epochs_run;

  const ComparisonResult comparison =
      built.pipeline->CompareWithEcep(test);
  row.throughput_gain = comparison.throughput_gain();
  row.recall = comparison.quality.recall;
  row.precision = comparison.quality.precision;
  row.f1 = comparison.quality.f1;
  row.fn_pct = comparison.quality.false_negative_pct;
  row.filtering_ratio = comparison.dlacep.filtering_ratio();
  row.ecep_partial_matches = comparison.ecep_stats.partial_matches;
  row.acep_partial_matches = comparison.dlacep.cep_stats.partial_matches;
  row.exact_matches = comparison.exact_matches.size();
  row.emitted_matches = comparison.dlacep.matches.size();
  return row;
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf(
      "%-34s %-15s %10s %7s %7s %7s %9s %12s %12s %8s %8s\n",
      "experiment", "filter/engine", "tp-gain", "recall", "prec", "FN%",
      "filt%", "PM(ecep)", "PM(acep)", "matches", "trainF1");
}

void PrintRow(const ExperimentRow& row) {
  std::printf(
      "%-34s %-15s %10.2f %7.3f %7.3f %7.2f %8.1f%% %12llu %12llu "
      "%8zu %8.3f\n",
      row.label.c_str(), row.filter.c_str(), row.throughput_gain,
      row.recall, row.precision, row.fn_pct, row.filtering_ratio * 100.0,
      static_cast<unsigned long long>(row.ecep_partial_matches),
      static_cast<unsigned long long>(row.acep_partial_matches),
      row.emitted_matches, row.entity_f1);
  std::fflush(stdout);
  if (Observer()) Observer()(row);
}

void PrintFooter() { std::printf("\n"); }

}  // namespace workloads
}  // namespace dlacep
