// Ablation: filter backbone architecture — BiLSTM vs TCN (paper §4.1:
// "BiLSTM was empirically shown to be superior to other approaches such
// as TCN ... in our preliminary experiments"). Both backbones share the
// featurizer, the BI-CRF head, the training budget, and the dataset;
// only the sequence encoder differs.

#include <cstdio>

#include "common/timer.h"
#include "dlacep/event_filter.h"
#include "dlacep/oracle_filter.h"
#include "dlacep/pipeline.h"
#include "workloads/queries_a.h"
#include "workloads/recipes.h"

#include "bench_json.h"

namespace dlacep {
namespace workloads {
namespace {

/// Pipeline filter that borrows a trained network.
class Borrowed : public StreamFilter {
 public:
  explicit Borrowed(StreamFilter* inner) : inner_(inner) {}
  std::string name() const override { return inner_->name(); }
  std::vector<int> Mark(const EventStream& stream,
                        WindowRange range) const override {
    return inner_->Mark(stream, range);
  }

 private:
  const StreamFilter* inner_;
};

int Run() {
  const EventStream train = GenerateStockStream(StockConfig(5000, 1001));
  const EventStream test = GenerateStockStream(StockConfig(3000, 2002));
  auto s = train.schema_ptr();
  const size_t w = 18;
  const Pattern pattern = QA1(s, 4, 10, 0.9, 1.1, 3, w);

  DlacepConfig config = BenchConfig();
  config.network.num_layers = 2;  // dilation 1+2 for the TCN

  const Featurizer featurizer(pattern, train);
  const InputAssembler assembler = InputAssembler::ForWindow(w);
  const FilterDataset dataset = BuildFilterDataset(
      pattern, train, assembler, featurizer, config.train_fraction,
      config.split_seed);

  // Exact baseline (once).
  auto ecep = CreateEngine(EngineKind::kNfa, pattern);
  MatchSet exact;
  DLACEP_CHECK(ecep.value()
                   ->Evaluate({test.events().data(), test.size()}, &exact)
                   .ok());
  const double ecep_seconds = ecep.value()->stats().elapsed_seconds;

  std::printf("=== Ablation: filter backbone (BiLSTM vs TCN), QA1, "
              "identical head/budget/dataset ===\n");
  std::printf("%-16s %10s %10s %10s %10s %10s\n", "backbone", "train(s)",
              "testF1", "recall", "tp-gain", "filt%");

  auto evaluate = [&](TrainableFilter* filter, const char* label) {
    Stopwatch train_watch;
    filter->Fit(dataset.train_event, config.train);
    const double train_seconds = train_watch.ElapsedSeconds();
    const double f1 = filter->Score(dataset.test_event).f1();

    DlacepPipeline pipeline(pattern, std::make_unique<Borrowed>(filter),
                            config);
    const PipelineResult result = pipeline.Evaluate(test);
    const MatchSetMetrics quality = CompareMatchSets(exact, result.matches);
    std::printf("%-16s %10.1f %10.3f %10.3f %10.2f %9.1f%%\n", label,
                train_seconds, f1, quality.recall,
                ecep_seconds / std::max(result.elapsed_seconds(), 1e-9),
                result.filtering_ratio() * 100);
    std::fflush(stdout);
  };

  EventNetworkFilter bilstm(&featurizer, config.network,
                            config.event_threshold);
  evaluate(&bilstm, "BiLSTM+BI-CRF");

  EventNetworkFilter tcn(&featurizer, config.network, config.event_threshold,
                         EventBackbone::Tcn(/*kernel=*/3));
  evaluate(&tcn, "TCN+BI-CRF");

  std::printf("\n(paper §4.1: the BiLSTM backbone was empirically "
              "superior to TCN in their preliminary experiments)\n");
  return 0;
}

}  // namespace
}  // namespace workloads
}  // namespace dlacep

int main(int argc, char** argv) {
  dlacep::workloads::JsonReport::Init(argc, argv);
  return dlacep::workloads::JsonReport::Finish(dlacep::workloads::Run());
}
