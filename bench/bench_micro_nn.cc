// Micro benchmarks (google-benchmark) for the nn substrate, backing the
// §4.3 filtration-complexity claim: BiLSTM inference cost is O(h·l) —
// linear in the parameter count and the sequence length, independent of
// the number of partial matches in the data.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "dlacep/event_filter.h"
#include "dlacep/featurizer.h"
#include "nn/crf.h"
#include "nn/infer.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "pattern/builder.h"
#include "stream/generator.h"

namespace dlacep {
namespace {

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::Randn(n, n, 1.0, &rng);
  const Matrix b = Matrix::Randn(n, n, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulPlain(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * n * n * n));
}
BENCHMARK(BM_MatMul)->Arg(16)->Arg(64)->Arg(128);

// The inference-path kernel: B pre-transposed at freeze time, output
// written into a caller-owned buffer. Same FLOP count as BM_MatMul —
// the delta is layout (contiguous dot products) plus zero allocation.
void BM_MatMulTransBInto(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::Randn(n, n, 1.0, &rng);
  const Matrix b_t = Matrix::Randn(n, n, 1.0, &rng);
  Matrix out(n, n);
  for (auto _ : state) {
    MatMulTransBInto(a, b_t, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * n * n * n));
}
BENCHMARK(BM_MatMulTransBInto)->Arg(16)->Arg(64)->Arg(128);

// Both precisions at the shapes the LSTM actually runs (arg: hidden
// size H; H = 12 for cep_batch, 64 for filter_online, 96 for serve8).
// Each step's recurrent forward is a one-row 1×H · H×4H product, in
// the tape (double) and in the frozen trunk (float), accumulated into
// the gate row.
template <typename T>
void BM_MatMulRecurrent(benchmark::State& state) {
  const size_t h = static_cast<size_t>(state.range(0));
  Rng rng(7);
  const MatrixT<T> h_row = CastMatrix<T>(Matrix::Randn(1, h, 1.0, &rng));
  const MatrixT<T> wh = CastMatrix<T>(Matrix::Randn(h, 4 * h, 1.0, &rng));
  MatrixT<T> gates(1, 4 * h);
  for (auto _ : state) {
    MatMulInto(h_row, wh, &gates, /*accumulate=*/false);
    benchmark::DoNotOptimize(gates.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_TEMPLATE(BM_MatMulRecurrent, double)->Arg(12)->Arg(64)->Arg(96);
BENCHMARK_TEMPLATE(BM_MatMulRecurrent, float)->Arg(12)->Arg(64)->Arg(96);

// The tape's backward of that step: dh = dgates · Whᵗ, a one-row
// 1×4H · (H×4H)ᵗ product.
template <typename T>
void BM_MatMulTransBRecurrent(benchmark::State& state) {
  const size_t h = static_cast<size_t>(state.range(0));
  Rng rng(8);
  const MatrixT<T> dgates =
      CastMatrix<T>(Matrix::Randn(1, 4 * h, 1.0, &rng));
  const MatrixT<T> wh = CastMatrix<T>(Matrix::Randn(h, 4 * h, 1.0, &rng));
  MatrixT<T> dh(1, h);
  for (auto _ : state) {
    MatMulTransBInto(dgates, wh, &dh, /*accumulate=*/false);
    benchmark::DoNotOptimize(dh.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_TEMPLATE(BM_MatMulTransBRecurrent, double)
    ->Arg(12)->Arg(64)->Arg(96);
BENCHMARK_TEMPLATE(BM_MatMulTransBRecurrent, float)
    ->Arg(12)->Arg(64)->Arg(96);

// An emission head over a T = 32 window: T×2H · 2H×2.
template <typename T>
void BM_MatMulHead(benchmark::State& state) {
  const size_t h = static_cast<size_t>(state.range(0));
  Rng rng(9);
  const MatrixT<T> x = CastMatrix<T>(Matrix::Randn(32, 2 * h, 1.0, &rng));
  const MatrixT<T> w = CastMatrix<T>(Matrix::Randn(2 * h, 2, 1.0, &rng));
  MatrixT<T> out(32, 2);
  for (auto _ : state) {
    MatMulInto(x, w, &out, /*accumulate=*/false);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_TEMPLATE(BM_MatMulHead, double)->Arg(12)->Arg(64)->Arg(96);
BENCHMARK_TEMPLATE(BM_MatMulHead, float)->Arg(12)->Arg(64)->Arg(96);

void BM_BiLstmForwardSeqLen(benchmark::State& state) {
  const size_t t_steps = static_cast<size_t>(state.range(0));
  Rng rng(2);
  StackedBiLstm stack("s", 8, 16, 2, &rng);
  const Matrix input = Matrix::Randn(t_steps, 8, 1.0, &rng);
  for (auto _ : state) {
    Tape tape;
    benchmark::DoNotOptimize(stack.Forward(&tape, tape.Input(input)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t_steps));
}
BENCHMARK(BM_BiLstmForwardSeqLen)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

// Args are {hidden, T}: T = 32 across hidden sizes, plus the trunk
// shapes of the end-to-end workloads — H = 96 (serve8) and a T = 40,
// H = 64 window (filter_online).
void HiddenArgs(benchmark::internal::Benchmark* b) {
  for (int64_t hidden : {8, 16, 32, 64, 96}) b->Args({hidden, 32});
  b->Args({64, 40});
}

void BM_BiLstmForwardHidden(benchmark::State& state) {
  const size_t hidden = static_cast<size_t>(state.range(0));
  const size_t t_steps = static_cast<size_t>(state.range(1));
  Rng rng(3);
  StackedBiLstm stack("s", 8, hidden, 2, &rng);
  const Matrix input = Matrix::Randn(t_steps, 8, 1.0, &rng);
  for (auto _ : state) {
    Tape tape;
    benchmark::DoNotOptimize(stack.Forward(&tape, tape.Input(input)));
  }
}
BENCHMARK(BM_BiLstmForwardHidden)->Apply(HiddenArgs);

// Tape-free counterparts of the two benches above: frozen fp32 weights,
// fused LSTM cell, one InferenceContext reused across iterations (the
// steady state of pipeline filtration — allocation-free after the
// first pass). Each iteration is the one frozen Forward on one window
// (the same inputs rounded to float), so the numbers are per-window.
void BM_BiLstmInferSeqLen(benchmark::State& state) {
  const size_t t_steps = static_cast<size_t>(state.range(0));
  Rng rng(2);
  StackedBiLstm stack("s", 8, 16, 2, &rng);
  const StackedBiLstmInfer frozen = Freeze(stack);
  const MatrixF input =
      CastMatrix<float>(Matrix::Randn(t_steps, 8, 1.0, &rng));
  InferenceContext ctx;
  for (auto _ : state) {
    ctx.Reset();
    benchmark::DoNotOptimize(frozen.Forward(&ctx, input).data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t_steps));
}
BENCHMARK(BM_BiLstmInferSeqLen)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_BiLstmInferHidden(benchmark::State& state) {
  const size_t hidden = static_cast<size_t>(state.range(0));
  const size_t t_steps = static_cast<size_t>(state.range(1));
  Rng rng(3);
  StackedBiLstm stack("s", 8, hidden, 2, &rng);
  const StackedBiLstmInfer frozen = Freeze(stack);
  const MatrixF input =
      CastMatrix<float>(Matrix::Randn(t_steps, 8, 1.0, &rng));
  InferenceContext ctx;
  for (auto _ : state) {
    ctx.Reset();
    benchmark::DoNotOptimize(frozen.Forward(&ctx, input).data());
  }
}
BENCHMARK(BM_BiLstmInferHidden)->Apply(HiddenArgs);

// End-to-end filter forward at the paper-scale hidden size: the full
// BiLSTM event filter (stack + emission heads + BI-CRF marginals +
// threshold) on one 64-event window, tape path vs inference path.
// This pair backs the headline speedup figure in EXPERIMENTS.md.
struct FilterBenchFixture {
  FilterBenchFixture()
      : stream([] {
          SyntheticConfig config;
          config.num_events = 2000;
          config.num_types = 5;
          config.num_attrs = 1;
          config.seed = 7;
          return GenerateSynthetic(config);
        }()),
        pattern([&] {
          PatternBuilder b(stream.schema_ptr());
          auto root = b.Seq(b.Prim("A", "a"), b.Prim("B", "bb"));
          b.WhereCmp(1.0, "a", "vol", CmpOp::kLt, 1.0, "bb");
          return b.BuildOrDie(std::move(root), WindowSpec::Count(32));
        }()),
        featurizer(pattern, stream) {}

  EventStream stream;
  Pattern pattern;
  Featurizer featurizer;
};

FilterBenchFixture& SharedFixture() {
  static FilterBenchFixture fixture;
  return fixture;
}

void BM_EventFilterTapeForward(benchmark::State& state) {
  FilterBenchFixture& fx = SharedFixture();
  NetworkConfig network;
  network.hidden_dim = static_cast<size_t>(state.range(0));
  network.num_layers = 2;
  const EventNetworkFilter filter(&fx.featurizer, network, 0.5);
  Rng rng(8);
  const Matrix features =
      Matrix::Randn(64, fx.featurizer.feature_dim(), 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.MarkFeaturesTape(features));
  }
}
BENCHMARK(BM_EventFilterTapeForward)->Arg(16)->Arg(64);

void BM_EventFilterInferForward(benchmark::State& state) {
  FilterBenchFixture& fx = SharedFixture();
  NetworkConfig network;
  network.hidden_dim = static_cast<size_t>(state.range(0));
  network.num_layers = 2;
  const EventNetworkFilter filter(&fx.featurizer, network, 0.5);
  Rng rng(8);
  const Matrix features =
      Matrix::Randn(64, fx.featurizer.feature_dim(), 1.0, &rng);
  InferenceContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.MarkFeaturesWith(features, &ctx));
  }
}
BENCHMARK(BM_EventFilterInferForward)->Arg(16)->Arg(64);

void BM_TrainingStep(benchmark::State& state) {
  Rng rng(4);
  StackedBiLstm stack("s", 8, 16, 2, &rng);
  Dense head_f("hf", stack.out_dim(), 2, &rng);
  Dense head_b("hb", stack.out_dim(), 2, &rng);
  BiCrf crf("crf", 2, &rng);
  const Matrix input = Matrix::Randn(32, 8, 1.0, &rng);
  std::vector<int> labels(32);
  for (size_t i = 0; i < labels.size(); ++i) labels[i] = (i % 3) == 0;

  std::vector<Parameter*> params = stack.Params();
  for (Parameter* p : head_f.Params()) params.push_back(p);
  for (Parameter* p : head_b.Params()) params.push_back(p);
  for (Parameter* p : crf.Params()) params.push_back(p);

  for (auto _ : state) {
    Tape tape;
    Var h = stack.Forward(&tape, tape.Input(input));
    Var loss = crf.Nll(&tape, head_f.Forward(&tape, h),
                       head_b.Forward(&tape, h), labels);
    tape.Backward(loss);
    for (Parameter* p : params) p->ZeroGrad();
    benchmark::DoNotOptimize(loss.value()(0, 0));
  }
}
BENCHMARK(BM_TrainingStep);

void BM_CrfViterbi(benchmark::State& state) {
  const size_t t_steps = static_cast<size_t>(state.range(0));
  Rng rng(5);
  LinearChainCrf crf("crf", 2, &rng);
  const Matrix emissions = Matrix::Randn(t_steps, 2, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crf.Viterbi(emissions));
  }
}
BENCHMARK(BM_CrfViterbi)->Arg(32)->Arg(128)->Arg(512);

void BM_CrfMarginals(benchmark::State& state) {
  Rng rng(6);
  LinearChainCrf crf("crf", 2, &rng);
  const Matrix emissions = Matrix::Randn(64, 2, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crf.Marginals(emissions));
  }
}
BENCHMARK(BM_CrfMarginals);

}  // namespace
}  // namespace dlacep

// --json F is translated into google-benchmark's own JSON reporter so
// all 16 bench binaries share one flag for machine-readable output.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static std::string out_flag;
  static std::string fmt_flag = "--benchmark_out_format=json";
  for (size_t i = 1; i < args.size(); ++i) {
    std::string arg = args[i];
    std::string path;
    if (arg == "--json" && i + 1 < args.size()) {
      path = args[i + 1];
      args.erase(args.begin() + i, args.begin() + i + 2);
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
      args.erase(args.begin() + i);
    } else {
      continue;
    }
    out_flag = "--benchmark_out=" + path;
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
    break;
  }
  int rewritten_argc = static_cast<int>(args.size());
  benchmark::Initialize(&rewritten_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(rewritten_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
