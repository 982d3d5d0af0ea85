#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif


namespace dlacep {

template <typename T>
MatrixT<T> MatrixT<T>::Randn(size_t rows, size_t cols, double stddev,
                             Rng* rng) {
  MatrixT m(rows, cols);
  for (T& v : m.data_) v = static_cast<T>(rng->Normal(0.0, stddev));
  return m;
}

template <typename T>
MatrixT<T> MatrixT<T>::Xavier(size_t rows, size_t cols, Rng* rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  MatrixT m(rows, cols);
  for (T& v : m.data_) v = static_cast<T>(rng->Uniform(-limit, limit));
  return m;
}

template <typename T>
MatrixT<T> MatrixT<T>::Row(const std::vector<T>& values) {
  MatrixT m(1, values.size());
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

template <typename T>
void MatrixT<T>::AddInPlace(const MatrixT& other) {
  DLACEP_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

template <typename T>
void MatrixT<T>::AxpyInPlace(T scale, const MatrixT& other) {
  DLACEP_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

template <typename T>
T MatrixT<T>::Norm() const {
  T sum = 0;
  for (T v : data_) sum += v * v;
  return std::sqrt(sum);
}

template <typename T>
T MatrixT<T>::Sum() const {
  T sum = 0;
  for (T v : data_) sum += v;
  return sum;
}

template <typename T>
T MatrixT<T>::MaxAbsDiff(const MatrixT& other) const {
  DLACEP_CHECK(SameShape(other));
  T worst = 0;
  for (size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  }
  return worst;
}

template class MatrixT<double>;
template class MatrixT<float>;

namespace {

#if defined(__x86_64__)

#define DLACEP_AVX512 __attribute__((target("avx512f")))

// One zmm register of T and the few AVX-512 operations the kernels
// below use, so each kernel is written once for both precisions: a
// vector holds 16 floats or 8 doubles, and `Mask` has one bit per lane.
template <typename T>
struct Zmm;

template <>
struct Zmm<float> {
  using Vec = __m512;
  using Mask = __mmask16;
  using Index = __m512i;  // one 32-bit element offset per lane
  static constexpr size_t kLanes = 16;
  static constexpr Mask kAll = 0xFFFF;
  DLACEP_AVX512 static Vec Zero() { return _mm512_setzero_ps(); }
  DLACEP_AVX512 static Vec Set1(float x) { return _mm512_set1_ps(x); }
  DLACEP_AVX512 static Vec Load(Mask m, const float* p) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  DLACEP_AVX512 static void Store(float* p, Mask m, Vec v) {
    _mm512_mask_storeu_ps(p, m, v);
  }
  DLACEP_AVX512 static Vec Fma(Vec a, Vec b, Vec c) {
    return _mm512_fmadd_ps(a, b, c);
  }
  DLACEP_AVX512 static Index Strided(size_t stride) {
    return _mm512_mullo_epi32(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15),
        _mm512_set1_epi32(static_cast<int>(stride)));
  }
  DLACEP_AVX512 static Vec Gather(Mask m, Index index, const float* base) {
    return _mm512_mask_i32gather_ps(Zero(), m, index, base, sizeof(float));
  }
};

template <>
struct Zmm<double> {
  using Vec = __m512d;
  using Mask = __mmask8;
  using Index = __m256i;
  static constexpr size_t kLanes = 8;
  static constexpr Mask kAll = 0xFF;
  DLACEP_AVX512 static Vec Zero() { return _mm512_setzero_pd(); }
  DLACEP_AVX512 static Vec Set1(double x) { return _mm512_set1_pd(x); }
  DLACEP_AVX512 static Vec Load(Mask m, const double* p) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  DLACEP_AVX512 static void Store(double* p, Mask m, Vec v) {
    _mm512_mask_storeu_pd(p, m, v);
  }
  DLACEP_AVX512 static Vec Fma(Vec a, Vec b, Vec c) {
    return _mm512_fmadd_pd(a, b, c);
  }
  DLACEP_AVX512 static Index Strided(size_t stride) {
    return _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                              _mm256_set1_epi32(static_cast<int>(stride)));
  }
  DLACEP_AVX512 static Vec Gather(Mask m, Index index, const double* base) {
    return _mm512_mask_i32gather_pd(Zero(), m, index, base, sizeof(double));
  }
};

/// The first `count` lanes (count <= kLanes).
template <typename T>
typename Zmm<T>::Mask FirstLanes(size_t count) {
  return static_cast<typename Zmm<T>::Mask>((uint64_t{1} << count) - 1);
}

// Micro-kernel for C += A·B: an R-row × V-vector block of C lives in R·V
// zmm accumulators across the entire k reduction — per k step: V B
// loads, R A broadcasts, R·V FMAs. `tail` masks the block's last vector
// for a partial column panel. Each C entry is one serial FMA chain in
// ascending k, so the block shape never changes a result bit.
template <typename T, int R, int V>
DLACEP_AVX512 inline void Tile(const T* a, size_t kk, const T* b, size_t ldb,
                               T* c, size_t ldc, typename Zmm<T>::Mask tail) {
  using Z = Zmm<T>;
  constexpr size_t L = Z::kLanes;
  typename Z::Vec acc[R][V];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      acc[r][v] = Z::Load(v == V - 1 ? tail : Z::kAll, c + r * ldc + L * v);
    }
  }
  for (size_t k = 0; k < kk; ++k) {
    typename Z::Vec bv[V];
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      bv[v] = Z::Load(v == V - 1 ? tail : Z::kAll, b + k * ldb + L * v);
    }
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      const typename Z::Vec av = Z::Set1(a[r * kk + k]);
#pragma GCC unroll 16
      for (int v = 0; v < V; ++v) acc[r][v] = Z::Fma(av, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      Z::Store(c + r * ldc + L * v, v == V - 1 ? tail : Z::kAll, acc[r][v]);
    }
  }
}

// R rows of C: column panels as wide as sixteen accumulators allow (a
// 1×16-vector panel holds the LSTM's whole H = 64 float gate row in
// registers; four double rows take 4×32 panels), then narrower panels,
// then one masked tail vector.
template <typename T, int R>
DLACEP_AVX512 void Rows(const T* a, const T* b, T* c, size_t kk, size_t n) {
  constexpr size_t L = Zmm<T>::kLanes;
  constexpr int kWide = 16 / R;
  const auto all = Zmm<T>::kAll;
  size_t j = 0;
  for (; j + L * kWide <= n; j += L * kWide) {
    Tile<T, R, kWide>(a, kk, b + j, n, c + j, n, all);
  }
  if constexpr (kWide > 8) {
    for (; j + 8 * L <= n; j += 8 * L) {
      Tile<T, R, 8>(a, kk, b + j, n, c + j, n, all);
    }
  }
  if constexpr (kWide > 4) {
    for (; j + 4 * L <= n; j += 4 * L) {
      Tile<T, R, 4>(a, kk, b + j, n, c + j, n, all);
    }
  }
  for (; j + L <= n; j += L) Tile<T, R, 1>(a, kk, b + j, n, c + j, n, all);
  if (j < n) Tile<T, R, 1>(a, kk, b + j, n, c + j, n, FirstLanes<T>(n - j));
}

template <typename T>
DLACEP_AVX512 void MatMulAvx512(const T* ad, const T* bd, T* cd, size_t m,
                                size_t kk, size_t n) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) Rows<T, 4>(ad + i * kk, bd, cd + i * n, kk, n);
  for (; i < m; ++i) Rows<T, 1>(ad + i * kk, bd, cd + i * n, kk, n);
}

// C (+)= A·Bᵗ, J output columns of a kLanes-row block at a time: the
// block's A entries at step k are one gather, so each lane runs its
// entry's dot product as a serial FMA chain from zero in ascending k —
// the same chain as the portable loop.
template <typename T, int J>
DLACEP_AVX512 inline void TransBBlock(const T* a, const T* bt, T* c, size_t kk,
                                      size_t n, size_t rows,
                                      typename Zmm<T>::Index index,
                                      bool accumulate) {
  using Z = Zmm<T>;
  const auto mask = FirstLanes<T>(rows);
  typename Z::Vec acc[J];
#pragma GCC unroll 4
  for (int jj = 0; jj < J; ++jj) acc[jj] = Z::Zero();
  for (size_t k = 0; k < kk; ++k) {
    const typename Z::Vec av = Z::Gather(mask, index, a + k);
#pragma GCC unroll 4
    for (int jj = 0; jj < J; ++jj) {
      acc[jj] = Z::Fma(av, Z::Set1(bt[jj * kk + k]), acc[jj]);
    }
  }
  alignas(64) T lanes[J][Z::kLanes];
#pragma GCC unroll 4
  for (int jj = 0; jj < J; ++jj) Z::Store(lanes[jj], Z::kAll, acc[jj]);
  for (size_t l = 0; l < rows; ++l) {
    T* crow = c + l * n;
    for (int jj = 0; jj < J; ++jj) {
      crow[jj] = accumulate ? crow[jj] + lanes[jj][l] : lanes[jj][l];
    }
  }
}

// A gather feeding fewer lanes than this costs more than the portable
// loop's independent scalar chains.
constexpr size_t kMinGatherRows = 4;

/// Runs the row blocks of C (+)= A·Bᵗ that fill at least kMinGatherRows
/// of a gather's lanes and returns the first row it left to the portable
/// loop.
template <typename T>
DLACEP_AVX512 size_t MatMulTransBAvx512(const T* ad, const T* bd, T* cd,
                                        size_t m, size_t kk, size_t n,
                                        bool accumulate) {
  constexpr size_t L = Zmm<T>::kLanes;
  const auto index = Zmm<T>::Strided(kk);
  size_t i = 0;
  for (; i + kMinGatherRows <= m; i += L) {
    const size_t rows = std::min(L, m - i);
    const T* a = ad + i * kk;
    T* c = cd + i * n;
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      TransBBlock<T, 4>(a, bd + j * kk, c + j, kk, n, rows, index, accumulate);
    }
    if (j + 2 <= n) {
      TransBBlock<T, 2>(a, bd + j * kk, c + j, kk, n, rows, index, accumulate);
      j += 2;
    }
    if (j < n) {
      TransBBlock<T, 1>(a, bd + j * kk, c + j, kk, n, rows, index, accumulate);
    }
  }
  return std::min(i, m);
}

bool GemmHasAvx512() {
  static const bool ok = __builtin_cpu_supports("avx512f");
  return ok;
}

#undef DLACEP_AVX512

#endif  // __x86_64__

// The portable loops, written for both precisions and inlined into each
// GEMM clone below (vectorized across j in the x86-64-v3 clone, libm
// fma in the default one). Each computes every entry with the same
// serial chain as the AVX-512 kernels, so every dispatch gives the same
// bits.

// C += A·B: c = fma(a_k, b_k, c) in ascending k, from C's value.
template <typename T>
[[gnu::always_inline]] inline void MatMulLoop(const T* ad, const T* bd, T* cd,
                                              size_t m, size_t kk, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    T* crow = cd + i * n;
    for (size_t k = 0; k < kk; ++k) {
      const T ak = ad[i * kk + k];
      const T* brow = bd + k * n;
      for (size_t j = 0; j < n; ++j) crow[j] = std::fma(ak, brow[j], crow[j]);
    }
  }
}

// Q entries of one row of C (+)= A·Bᵗ: the dot products of `arow` with
// Q consecutive rows of Bᵗ, each one chain from zero, stored or added
// once it is complete.
template <size_t Q, typename T>
[[gnu::always_inline]] inline void DotChains(const T* arow, const T* b,
                                             size_t kk, T* c,
                                             bool accumulate) {
  T sum[Q] = {};
  for (size_t k = 0; k < kk; ++k) {
#pragma GCC unroll 8
    for (size_t q = 0; q < Q; ++q) {
      sum[q] = std::fma(arow[k], b[q * kk + k], sum[q]);
    }
  }
  for (size_t q = 0; q < Q; ++q) c[q] = accumulate ? c[q] + sum[q] : sum[q];
}

// Rows [i0, m) of C (+)= A·Bᵗ, eight (then four) chains of a row in
// flight at a time, so the FMA latency does not serialize the one-row
// products of the tape's backward pass.
template <typename T>
[[gnu::always_inline]] inline void MatMulTransBLoop(const T* ad, const T* bd,
                                                    T* cd, size_t i0,
                                                    size_t m, size_t kk,
                                                    size_t n,
                                                    bool accumulate) {
  for (size_t i = i0; i < m; ++i) {
    const T* arow = ad + i * kk;
    T* crow = cd + i * n;
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      DotChains<8>(arow, bd + j * kk, kk, crow + j, accumulate);
    }
    if (j + 4 <= n) {
      DotChains<4>(arow, bd + j * kk, kk, crow + j, accumulate);
      j += 4;
    }
    for (; j < n; ++j) DotChains<1>(arow, bd + j * kk, kk, crow + j, accumulate);
  }
}

template <typename T>
[[gnu::always_inline]] inline void MatMulT(const MatrixT<T>& a,
                                           const MatrixT<T>& b,
                                           MatrixT<T>* out, bool accumulate) {
  DLACEP_CHECK(out != nullptr);
  DLACEP_CHECK_EQ(a.cols(), b.rows());
  DLACEP_CHECK_EQ(out->rows(), a.rows());
  DLACEP_CHECK_EQ(out->cols(), b.cols());
  if (!accumulate) out->Fill(T(0));
#if defined(__x86_64__)
  if (GemmHasAvx512()) {
    MatMulAvx512(a.data(), b.data(), out->data(), a.rows(), a.cols(),
                 b.cols());
    return;
  }
#endif
  MatMulLoop(a.data(), b.data(), out->data(), a.rows(), a.cols(), b.cols());
}

template <typename T>
[[gnu::always_inline]] inline void MatMulTransBT(const MatrixT<T>& a,
                                                 const MatrixT<T>& b_t,
                                                 MatrixT<T>* out,
                                                 bool accumulate) {
  DLACEP_CHECK(out != nullptr);
  DLACEP_CHECK_EQ(a.cols(), b_t.cols());
  DLACEP_CHECK_EQ(out->rows(), a.rows());
  DLACEP_CHECK_EQ(out->cols(), b_t.rows());
  size_t row0 = 0;
#if defined(__x86_64__)
  if (a.rows() >= kMinGatherRows && GemmHasAvx512()) {
    row0 = MatMulTransBAvx512(a.data(), b_t.data(), out->data(), a.rows(),
                              a.cols(), b_t.rows(), accumulate);
  }
#endif
  MatMulTransBLoop(a.data(), b_t.data(), out->data(), row0, a.rows(),
                   a.cols(), b_t.rows(), accumulate);
}

}  // namespace

// Function multiversioning for the GEMMs: the portable build stays the
// default, and on x86-64 ELF targets the compiler also emits
// x86-64-v3 and x86-64-v4 clones, one selected once at load time via
// ifunc. Every clone and the AVX-512 kernels compute each entry with
// the same serial FMA chain, so the pick changes speed, never a bit.
// Disabled under sanitizers (ifunc resolvers run before their runtimes
// initialize).
#if defined(__x86_64__) && defined(__ELF__) && !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DLACEP_GEMM_CLONES
#endif
#endif
#ifndef DLACEP_GEMM_CLONES
#define DLACEP_GEMM_CLONES \
  __attribute__(                                                         \
      (target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#endif
#endif
#ifndef DLACEP_GEMM_CLONES
#define DLACEP_GEMM_CLONES
#endif

Matrix MatMulPlain(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  MatMulInto(a, b, &out, /*accumulate=*/true);
  return out;
}


DLACEP_GEMM_CLONES void MatMulInto(const Matrix& a, const Matrix& b,
                                   Matrix* out, bool accumulate) {
  MatMulT(a, b, out, accumulate);
}

DLACEP_GEMM_CLONES void MatMulInto(const MatrixF& a, const MatrixF& b,
                                   MatrixF* out, bool accumulate) {
  MatMulT(a, b, out, accumulate);
}

DLACEP_GEMM_CLONES void MatMulTransBInto(const Matrix& a, const Matrix& b_t,
                                         Matrix* out, bool accumulate) {
  MatMulTransBT(a, b_t, out, accumulate);
}

DLACEP_GEMM_CLONES void MatMulTransBInto(const MatrixF& a,
                                         const MatrixF& b_t, MatrixF* out,
                                         bool accumulate) {
  MatMulTransBT(a, b_t, out, accumulate);
}

// c = fma(a_ki, b_kj, c) in ascending k, from C's value: k outermost, so
// the j loop streams a row of B into a row of C (vectorized across j in
// the x86-64-v3 and -v4 clones).
DLACEP_GEMM_CLONES void MatMulTransAInto(const Matrix& a, const Matrix& b,
                                         Matrix* out, bool accumulate) {
  DLACEP_CHECK(out != nullptr);
  DLACEP_CHECK_EQ(a.rows(), b.rows());
  DLACEP_CHECK_EQ(out->rows(), a.cols());
  DLACEP_CHECK_EQ(out->cols(), b.cols());
  const size_t m = a.cols();
  const size_t kk = a.rows();
  const size_t n = b.cols();
  if (!accumulate) out->Fill(0.0);
  const double* ad = a.data();
  const double* bd = b.data();
  double* cd = out->data();
  for (size_t k = 0; k < kk; ++k) {
    const double* arow = ad + k * m;
    const double* brow = bd + k * n;
    for (size_t i = 0; i < m; ++i) {
      const double aki = arow[i];
      double* crow = cd + i * n;
      for (size_t j = 0; j < n; ++j) crow[j] = std::fma(aki, brow[j], crow[j]);
    }
  }
}

}  // namespace dlacep
