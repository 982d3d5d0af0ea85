#include "nn/infer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "obs/stages.h"
#include "obs/trace.h"

#if defined(DLACEP_HAVE_MVEC) && defined(__x86_64__)
#define DLACEP_VECTOR_CELL 1
#include <immintrin.h>
// glibc's vector expf (libmvec, <= 4 ulp): five transcendentals per
// hidden unit per step make the scalar cell update as expensive as the
// GEMMs, so the fused cell processes eight or sixteen lanes per exp
// call where the CPU allows. Selected once at runtime; the scalar path
// remains the portable fallback.
extern "C" __m256 _ZGVdN8v_expf(__m256);
extern "C" __m512 _ZGVeN16v_expf(__m512);
#endif

namespace dlacep {

namespace {

inline float SigmoidScalar(float v) { return 1.0f / (1.0f + std::exp(-v)); }

/// One LSTM cell update over all H lanes: reads the fused gate row
/// g = [i|f|g|o] (1×4H pre-activations), advances c/h state in place,
/// and writes h_t to `orow`.
void CellUpdateScalar(const float* g, size_t h, float* cs, float* hs,
                      float* orow) {
  for (size_t j = 0; j < h; ++j) {
    const float i_gate = SigmoidScalar(g[j]);
    const float f_gate = SigmoidScalar(g[h + j]);
    const float g_gate = std::tanh(g[2 * h + j]);
    const float o_gate = SigmoidScalar(g[3 * h + j]);
    const float c_t = f_gate * cs[j] + i_gate * g_gate;
    const float h_t = o_gate * std::tanh(c_t);
    cs[j] = c_t;
    hs[j] = h_t;
    orow[j] = h_t;
  }
}

#ifdef DLACEP_VECTOR_CELL

__attribute__((target("avx2,fma"))) inline __m256 VecSigmoid(__m256 v) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = _ZGVdN8v_expf(_mm256_sub_ps(_mm256_setzero_ps(), v));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

// tanh(x) = 1 - 2/(exp(2x) + 1); saturates to ±1 when exp over/underflows.
__attribute__((target("avx2,fma"))) inline __m256 VecTanh(__m256 v) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 e = _ZGVdN8v_expf(_mm256_mul_ps(two, v));
  return _mm256_sub_ps(one, _mm256_div_ps(two, _mm256_add_ps(e, one)));
}

__attribute__((target("avx2,fma"))) void CellUpdateAvx2(const float* g,
                                                        size_t h, float* cs,
                                                        float* hs,
                                                        float* orow) {
  size_t j = 0;
  for (; j + 8 <= h; j += 8) {
    const __m256 i_gate = VecSigmoid(_mm256_loadu_ps(g + j));
    const __m256 f_gate = VecSigmoid(_mm256_loadu_ps(g + h + j));
    const __m256 g_gate = VecTanh(_mm256_loadu_ps(g + 2 * h + j));
    const __m256 o_gate = VecSigmoid(_mm256_loadu_ps(g + 3 * h + j));
    const __m256 c_t = _mm256_fmadd_ps(f_gate, _mm256_loadu_ps(cs + j),
                                       _mm256_mul_ps(i_gate, g_gate));
    const __m256 h_t = _mm256_mul_ps(o_gate, VecTanh(c_t));
    _mm256_storeu_ps(cs + j, c_t);
    _mm256_storeu_ps(hs + j, h_t);
    _mm256_storeu_ps(orow + j, h_t);
  }
  CellUpdateScalar(g + j, h - j, cs + j, hs + j, orow + j);
}

// 512-bit twin of the kernel above: sixteen lanes per expf call, and a
// masked last vector instead of a scalar tail (masked-off lanes load
// zeros, which stay finite through every gate).
__attribute__((target("avx512f"))) inline __m512 VecSigmoid512(__m512 v) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 e = _ZGVeN16v_expf(_mm512_sub_ps(_mm512_setzero_ps(), v));
  return _mm512_div_ps(one, _mm512_add_ps(one, e));
}

__attribute__((target("avx512f"))) inline __m512 VecTanh512(__m512 v) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 two = _mm512_set1_ps(2.0f);
  const __m512 e = _ZGVeN16v_expf(_mm512_mul_ps(two, v));
  return _mm512_sub_ps(one, _mm512_div_ps(two, _mm512_add_ps(e, one)));
}

__attribute__((target("avx512f"))) void CellUpdateAvx512(const float* g,
                                                         size_t h, float* cs,
                                                         float* hs,
                                                         float* orow) {
  for (size_t j = 0; j < h; j += 16) {
    const __mmask16 m =
        h - j >= 16 ? 0xFFFF : static_cast<__mmask16>((1u << (h - j)) - 1);
    const __m512 i_gate = VecSigmoid512(_mm512_maskz_loadu_ps(m, g + j));
    const __m512 f_gate = VecSigmoid512(_mm512_maskz_loadu_ps(m, g + h + j));
    const __m512 g_gate = VecTanh512(_mm512_maskz_loadu_ps(m, g + 2 * h + j));
    const __m512 o_gate =
        VecSigmoid512(_mm512_maskz_loadu_ps(m, g + 3 * h + j));
    const __m512 c_t = _mm512_fmadd_ps(f_gate, _mm512_maskz_loadu_ps(m, cs + j),
                                       _mm512_mul_ps(i_gate, g_gate));
    const __m512 h_t = _mm512_mul_ps(o_gate, VecTanh512(c_t));
    _mm512_mask_storeu_ps(cs + j, m, c_t);
    _mm512_mask_storeu_ps(hs + j, m, h_t);
    _mm512_mask_storeu_ps(orow + j, m, h_t);
  }
}

bool CpuHasAvx2Fma() {
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
}

bool CpuHasAvx512() {
  static const bool ok = __builtin_cpu_supports("avx512f") && CpuHasAvx2Fma();
  return ok;
}

#endif  // DLACEP_VECTOR_CELL

using CellUpdateFn = void (*)(const float*, size_t, float*, float*, float*);

CellUpdateFn PickCellUpdate() {
#ifdef DLACEP_VECTOR_CELL
  if (CpuHasAvx512()) return CellUpdateAvx512;
  if (CpuHasAvx2Fma()) return CellUpdateAvx2;
#endif
  return CellUpdateScalar;
}

MatrixF TransposedF(const Matrix& m) {
  MatrixF out(m.cols(), m.rows());
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      out(j, i) = static_cast<float>(m(i, j));
    }
  }
  return out;
}

}  // namespace

namespace {

// Process-wide fault hook (fault-injection harness only). Both words are
// published/consumed with acquire/release so a hook installed on one
// thread is seen consistently by worker-thread Reset() calls.
std::atomic<bool (*)(void*)> g_fault_hook{nullptr};
std::atomic<void*> g_fault_hook_ctx{nullptr};

}  // namespace

void SetInferenceFaultHook(bool (*hook)(void* ctx), void* ctx) {
  g_fault_hook_ctx.store(ctx, std::memory_order_release);
  g_fault_hook.store(hook, std::memory_order_release);
}

void InferenceContext::Reset() {
  float_pool_.next = 0;
  double_pool_.next = 0;
  poison_ = false;
  if (auto* hook = g_fault_hook.load(std::memory_order_acquire)) {
    poison_ = hook(g_fault_hook_ctx.load(std::memory_order_acquire));
  }
}

void DenseInfer::Forward(const MatrixF& x, MatrixF* out) const {
  MatMulTransBInto(x, wt, out, /*accumulate=*/false);
  const size_t n = out->cols();
  const float* bias = b.data();
  for (size_t i = 0; i < out->rows(); ++i) {
    float* row = out->data() + i * n;
    for (size_t j = 0; j < n; ++j) row[j] += bias[j];
  }
}

void LstmInfer::Forward(InferenceContext* ctx, const MatrixF& x,
                        bool reverse, MatrixF* out, size_t col) const {
  const size_t t_len = x.rows();
  DLACEP_CHECK_GT(t_len, 0u);  // no empty windows
  DLACEP_CHECK_EQ(x.cols(), in_dim);
  DLACEP_CHECK_EQ(out->rows(), t_len);
  DLACEP_CHECK_LE(col + hidden, out->cols());
  const size_t h = hidden;

  // Input projection for every step in one GEMM — the recurrence only
  // depends on it row by row, so there is no reason to pay
  // matrix-vector arithmetic intensity T times.
  MatrixF& xproj = ctx->Acquire<float>(t_len, 4 * h);
  {
    obs::TraceSpan gemm_span(obs::StageNnGemm());
    MatMulInto(x, wx, &xproj, /*accumulate=*/false);
  }

  MatrixF& gates = ctx->Acquire<float>(1, 4 * h);
  MatrixF& h_state = ctx->Acquire<float>(1, h);
  MatrixF& c_state = ctx->Acquire<float>(1, h);
  float* g = gates.data();
  float* hs = h_state.data();
  float* cs = c_state.data();
  const float* bias = b.data();
  const size_t out_stride = out->cols();
  const CellUpdateFn cell_update = PickCellUpdate();

  // One span over the recurrence, not per step: the per-step cell work
  // is far below clock resolution and a clock read per step would
  // dominate it.
  obs::TraceSpan cell_span(obs::StageNnCell());
  h_state.Fill(0.0f);
  c_state.Fill(0.0f);
  for (size_t step = 0; step < t_len; ++step) {
    const size_t row = reverse ? t_len - 1 - step : step;
    // One fused pass fills all four gates: g = x_t·Wx (precomputed) +
    // b + h·Wh. The recurrent term is a 1×H · H×4H product accumulated
    // in place; the float GEMM keeps the whole 1×4H row in registers
    // across the reduction where the CPU allows (16 zmm at H = 64).
    const float* xrow = xproj.data() + row * 4 * h;
    for (size_t gi = 0; gi < 4 * h; ++gi) g[gi] = xrow[gi] + bias[gi];
    MatMulInto(h_state, wh, &gates, /*accumulate=*/true);
    cell_update(g, h, cs, hs, out->data() + row * out_stride + col);
  }
}

void BiLstmInfer::Forward(InferenceContext* ctx, const MatrixF& x,
                          MatrixF* out) const {
  fwd.Forward(ctx, x, /*reverse=*/false, out, 0);
  bwd.Forward(ctx, x, /*reverse=*/true, out, fwd.hidden);
}

const MatrixF& StackedBiLstmInfer::Forward(InferenceContext* ctx,
                                           const MatrixF& x) const {
  DLACEP_CHECK(!layers.empty());
  obs::NnBatchWindows()->Observe(1.0);
  const MatrixF* cur = &x;
  MatrixF* last = nullptr;
  for (const BiLstmInfer& layer : layers) {
    MatrixF& out = ctx->Acquire<float>(cur->rows(), 2 * layer.fwd.hidden);
    layer.Forward(ctx, *cur, &out);
    cur = &out;
    last = &out;
  }
  if (ctx->poisoned()) {
    // Fault injection: a poisoned pass leaves with a blown-up trunk
    // activation, which the heads/CRF propagate to non-finite scores
    // and kInvalidMark.
    last->Fill(std::numeric_limits<float>::quiet_NaN());
  }
  return *last;
}

const MatrixF& FrozenInput(InferenceContext* ctx, const Matrix& features) {
  MatrixF& x = ctx->Acquire<float>(features.rows(), features.cols());
  constexpr double kBound = kFrozenInputBound;
  const double* src = features.data();
  float* dst = x.data();
  for (size_t i = 0; i < features.size(); ++i) {
    // NaN passes through (both comparisons false), so a poisoned
    // feature still surfaces as kInvalidMark.
    const double v = src[i] > kBound    ? kBound
                     : src[i] < -kBound ? -kBound
                                        : src[i];
    dst[i] = static_cast<float>(v);
  }
  return x;
}

const MatrixF& TcnInfer::Forward(InferenceContext* ctx,
                                 const MatrixF& x) const {
  DLACEP_CHECK(!layers.empty());
  obs::NnBatchWindows()->Observe(1.0);
  const ptrdiff_t center = static_cast<ptrdiff_t>(kernel / 2);
  const size_t t_steps = x.rows();
  const MatrixF* cur = &x;
  MatrixF* last = nullptr;
  size_t dilation = 1;
  for (const Layer& layer : layers) {
    const size_t d_in = cur->cols();
    const size_t d_out = layer.b.cols();
    DLACEP_CHECK_EQ(layer.wt.cols(), kernel * d_in);
    MatrixF& out = ctx->Acquire<float>(t_steps, d_out);
    const float* bias = layer.b.data();
    for (size_t t = 0; t < t_steps; ++t) {
      float* orow = out.data() + t * d_out;
      for (size_t o = 0; o < d_out; ++o) orow[o] = bias[o];
      for (size_t k = 0; k < kernel; ++k) {
        const ptrdiff_t src = static_cast<ptrdiff_t>(t) +
                              (static_cast<ptrdiff_t>(k) - center) *
                                  static_cast<ptrdiff_t>(dilation);
        if (src < 0 || src >= static_cast<ptrdiff_t>(t_steps)) continue;
        const float* xrow = cur->data() + static_cast<size_t>(src) * d_in;
        for (size_t o = 0; o < d_out; ++o) {
          const float* wrow = layer.wt.data() + o * (kernel * d_in) + k * d_in;
          float sum = 0.0f;
          for (size_t i = 0; i < d_in; ++i) sum += xrow[i] * wrow[i];
          orow[o] += sum;
        }
      }
      for (size_t o = 0; o < d_out; ++o) orow[o] = std::max(0.0f, orow[o]);
    }
    cur = &out;
    last = &out;
    dilation *= 2;
  }
  if (ctx->poisoned()) {
    last->Fill(std::numeric_limits<float>::quiet_NaN());
  }
  return *last;
}

DenseInfer Freeze(const Dense& layer) {
  DenseInfer frozen;
  frozen.wt = TransposedF(layer.weight());
  frozen.b = CastMatrix<float>(layer.bias());
  return frozen;
}

LstmInfer Freeze(const Lstm& layer) {
  LstmInfer frozen;
  frozen.in_dim = layer.wx().rows();
  frozen.hidden = layer.hidden_dim();
  frozen.wx = CastMatrix<float>(layer.wx());
  frozen.wh = CastMatrix<float>(layer.wh());
  frozen.b = CastMatrix<float>(layer.bias());
  return frozen;
}

BiLstmInfer Freeze(const BiLstm& layer) {
  BiLstmInfer frozen;
  frozen.fwd = Freeze(layer.fwd());
  frozen.bwd = Freeze(layer.bwd());
  return frozen;
}

StackedBiLstmInfer Freeze(const StackedBiLstm& layer) {
  StackedBiLstmInfer frozen;
  frozen.layers.reserve(layer.num_layers());
  for (size_t i = 0; i < layer.num_layers(); ++i) {
    frozen.layers.push_back(Freeze(layer.layer(i)));
  }
  return frozen;
}

TcnInfer Freeze(const Tcn& layer) {
  TcnInfer frozen;
  frozen.kernel = layer.kernel();
  frozen.layers.reserve(layer.num_layers());
  for (size_t i = 0; i < layer.num_layers(); ++i) {
    TcnInfer::Layer l;
    l.wt = TransposedF(layer.weight(i));
    l.b = CastMatrix<float>(layer.bias(i));
    frozen.layers.push_back(std::move(l));
  }
  return frozen;
}

}  // namespace dlacep
