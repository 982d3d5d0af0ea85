// Bench harness: runs a (pattern, train stream, test stream, filter)
// experiment and prints paper-style rows — throughput gain over ECEP,
// recall / F1 / FN%, filtering ratio, and the §3.2 partial-match
// counters.

#ifndef DLACEP_WORKLOADS_REPORT_H_
#define DLACEP_WORKLOADS_REPORT_H_

#include <functional>
#include <string>

#include "dlacep/pipeline.h"

namespace dlacep {
namespace workloads {

/// One measured row of an experiment.
struct ExperimentRow {
  std::string label;
  std::string filter;
  double throughput_gain = 0.0;
  double recall = 1.0;
  double precision = 1.0;
  double f1 = 1.0;
  double fn_pct = 0.0;
  double filtering_ratio = 0.0;
  uint64_t ecep_partial_matches = 0;
  uint64_t acep_partial_matches = 0;
  size_t exact_matches = 0;
  size_t emitted_matches = 0;
  double train_seconds = 0.0;
  double entity_f1 = 1.0;  ///< filter-network test F1 (events/windows)
  size_t train_epochs = 0;
};

/// Trains (when applicable) a DLACEP system on `train` and measures it
/// against ECEP on `test`.
ExperimentRow RunDlacepExperiment(const std::string& label,
                                  const Pattern& pattern,
                                  const EventStream& train,
                                  const EventStream& test, FilterKind kind,
                                  const DlacepConfig& config);

/// Table printing.
void PrintHeader(const std::string& title);
void PrintRow(const ExperimentRow& row);
void PrintFooter();

/// Observer invoked with every row passed to PrintRow, in addition to
/// the table output — the hook the benches' shared --json reporter uses
/// to capture measurements without changing any bench logic. Pass
/// nullptr to clear.
using RowObserver = std::function<void(const ExperimentRow&)>;
void SetRowObserver(RowObserver observer);

}  // namespace workloads
}  // namespace dlacep

#endif  // DLACEP_WORKLOADS_REPORT_H_
