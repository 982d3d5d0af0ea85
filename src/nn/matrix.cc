#include "nn/matrix.h"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/string_util.h"

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

template <typename T>
std::string MatrixT<T>::ShapeString() const {
  return StrFormat("%zux%zu", rows_, cols_);
}

template class MatrixT<double>;
template class MatrixT<float>;

namespace {

// Reduction-dimension block size: four active B rows plus the C row of
// each pass stay resident in L1 across the j sweep.
constexpr size_t kBlockK = 64;

#if defined(__x86_64__)

// Explicit 512-bit micro-kernel for C += A·B on multi-row products.
// The auto-vectorized path below tops out streaming the C rows through
// memory once per k-block; here a 4×32 C tile lives in sixteen zmm
// accumulators across the *entire* k reduction — per k step: four B
// loads, four A broadcasts, sixteen FMAs. Per-element accumulation is
// still serial in k, the same order as the scalar path. Only used when
// m >= 4: single-row products (the tape's per-step matvecs) are better
// served by the row-sweep path, which reads B exactly once.
__attribute__((target("avx512f"))) void MatMulTileAvx512(
    const double* ad, const double* bd, double* cd, size_t m4, size_t kk,
    size_t n) {
  // j-panel outer, i-tile inner: the kk×32 B panel stays hot in L1/L2
  // while the A rows stream past it.
  size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    for (size_t i = 0; i + 4 <= m4; i += 4) {
      const double* ar0 = ad + i * kk;
      const double* ar1 = ar0 + kk;
      const double* ar2 = ar1 + kk;
      const double* ar3 = ar2 + kk;
      double* c0 = cd + i * n + j;
      double* c1 = c0 + n;
      double* c2 = c1 + n;
      double* c3 = c2 + n;
      __m512d acc00 = _mm512_loadu_pd(c0);
      __m512d acc01 = _mm512_loadu_pd(c0 + 8);
      __m512d acc02 = _mm512_loadu_pd(c0 + 16);
      __m512d acc03 = _mm512_loadu_pd(c0 + 24);
      __m512d acc10 = _mm512_loadu_pd(c1);
      __m512d acc11 = _mm512_loadu_pd(c1 + 8);
      __m512d acc12 = _mm512_loadu_pd(c1 + 16);
      __m512d acc13 = _mm512_loadu_pd(c1 + 24);
      __m512d acc20 = _mm512_loadu_pd(c2);
      __m512d acc21 = _mm512_loadu_pd(c2 + 8);
      __m512d acc22 = _mm512_loadu_pd(c2 + 16);
      __m512d acc23 = _mm512_loadu_pd(c2 + 24);
      __m512d acc30 = _mm512_loadu_pd(c3);
      __m512d acc31 = _mm512_loadu_pd(c3 + 8);
      __m512d acc32 = _mm512_loadu_pd(c3 + 16);
      __m512d acc33 = _mm512_loadu_pd(c3 + 24);
      for (size_t k = 0; k < kk; ++k) {
        const double* bp = bd + k * n + j;
        const __m512d b0 = _mm512_loadu_pd(bp);
        const __m512d b1 = _mm512_loadu_pd(bp + 8);
        const __m512d b2 = _mm512_loadu_pd(bp + 16);
        const __m512d b3 = _mm512_loadu_pd(bp + 24);
        const __m512d av0 = _mm512_set1_pd(ar0[k]);
        acc00 = _mm512_fmadd_pd(av0, b0, acc00);
        acc01 = _mm512_fmadd_pd(av0, b1, acc01);
        acc02 = _mm512_fmadd_pd(av0, b2, acc02);
        acc03 = _mm512_fmadd_pd(av0, b3, acc03);
        const __m512d av1 = _mm512_set1_pd(ar1[k]);
        acc10 = _mm512_fmadd_pd(av1, b0, acc10);
        acc11 = _mm512_fmadd_pd(av1, b1, acc11);
        acc12 = _mm512_fmadd_pd(av1, b2, acc12);
        acc13 = _mm512_fmadd_pd(av1, b3, acc13);
        const __m512d av2 = _mm512_set1_pd(ar2[k]);
        acc20 = _mm512_fmadd_pd(av2, b0, acc20);
        acc21 = _mm512_fmadd_pd(av2, b1, acc21);
        acc22 = _mm512_fmadd_pd(av2, b2, acc22);
        acc23 = _mm512_fmadd_pd(av2, b3, acc23);
        const __m512d av3 = _mm512_set1_pd(ar3[k]);
        acc30 = _mm512_fmadd_pd(av3, b0, acc30);
        acc31 = _mm512_fmadd_pd(av3, b1, acc31);
        acc32 = _mm512_fmadd_pd(av3, b2, acc32);
        acc33 = _mm512_fmadd_pd(av3, b3, acc33);
      }
      _mm512_storeu_pd(c0, acc00);
      _mm512_storeu_pd(c0 + 8, acc01);
      _mm512_storeu_pd(c0 + 16, acc02);
      _mm512_storeu_pd(c0 + 24, acc03);
      _mm512_storeu_pd(c1, acc10);
      _mm512_storeu_pd(c1 + 8, acc11);
      _mm512_storeu_pd(c1 + 16, acc12);
      _mm512_storeu_pd(c1 + 24, acc13);
      _mm512_storeu_pd(c2, acc20);
      _mm512_storeu_pd(c2 + 8, acc21);
      _mm512_storeu_pd(c2 + 16, acc22);
      _mm512_storeu_pd(c2 + 24, acc23);
      _mm512_storeu_pd(c3, acc30);
      _mm512_storeu_pd(c3 + 8, acc31);
      _mm512_storeu_pd(c3 + 16, acc32);
      _mm512_storeu_pd(c3 + 24, acc33);
    }
  }
  for (; j + 8 <= n; j += 8) {
    for (size_t i = 0; i + 4 <= m4; i += 4) {
      const double* ar0 = ad + i * kk;
      const double* ar1 = ar0 + kk;
      const double* ar2 = ar1 + kk;
      const double* ar3 = ar2 + kk;
      double* c0 = cd + i * n + j;
      double* c1 = c0 + n;
      double* c2 = c1 + n;
      double* c3 = c2 + n;
      __m512d acc0 = _mm512_loadu_pd(c0);
      __m512d acc1 = _mm512_loadu_pd(c1);
      __m512d acc2 = _mm512_loadu_pd(c2);
      __m512d acc3 = _mm512_loadu_pd(c3);
      for (size_t k = 0; k < kk; ++k) {
        const __m512d b0 = _mm512_loadu_pd(bd + k * n + j);
        acc0 = _mm512_fmadd_pd(_mm512_set1_pd(ar0[k]), b0, acc0);
        acc1 = _mm512_fmadd_pd(_mm512_set1_pd(ar1[k]), b0, acc1);
        acc2 = _mm512_fmadd_pd(_mm512_set1_pd(ar2[k]), b0, acc2);
        acc3 = _mm512_fmadd_pd(_mm512_set1_pd(ar3[k]), b0, acc3);
      }
      _mm512_storeu_pd(c0, acc0);
      _mm512_storeu_pd(c1, acc1);
      _mm512_storeu_pd(c2, acc2);
      _mm512_storeu_pd(c3, acc3);
    }
  }
  for (; j < n; ++j) {
    for (size_t i = 0; i < m4; ++i) {
      const double* arow = ad + i * kk;
      double sum = cd[i * n + j];
      for (size_t k = 0; k < kk; ++k) sum += arow[k] * bd[k * n + j];
      cd[i * n + j] = sum;
    }
  }
}

// Float micro-kernel for C += A·B: an R-row × V-vector (16 floats
// each) block of C lives in R·V zmm accumulators across the entire k
// reduction — per k step: V B loads, R A broadcasts, R·V FMAs. `tail`
// masks the block's last vector for a partial column panel. Each C
// entry is one serial FMA chain in ascending k, so the block shape never
// changes a result bit.
template <int R, int V>
__attribute__((target("avx512f"))) inline void TileF32(
    const float* a, size_t kk, const float* b, size_t ldb, float* c,
    size_t ldc, __mmask16 tail) {
  __m512 acc[R][V];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      acc[r][v] = _mm512_maskz_loadu_ps(v == V - 1 ? tail : 0xFFFF,
                                        c + r * ldc + 16 * v);
    }
  }
  for (size_t k = 0; k < kk; ++k) {
    __m512 bv[V];
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      bv[v] = _mm512_maskz_loadu_ps(v == V - 1 ? tail : 0xFFFF,
                                    b + k * ldb + 16 * v);
    }
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * kk + k]);
#pragma GCC unroll 16
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      _mm512_mask_storeu_ps(c + r * ldc + 16 * v, v == V - 1 ? tail : 0xFFFF,
                            acc[r][v]);
    }
  }
}

// R rows of C: column panels as wide as sixteen accumulators allow (a
// 1×256 panel holds the LSTM's whole H = 64 gate row in registers),
// then narrower panels, then one masked tail vector.
template <int R>
__attribute__((target("avx512f"))) void RowsF32(const float* a,
                                                const float* b, float* c,
                                                size_t kk, size_t n) {
  constexpr int kWide = 16 / R;
  size_t j = 0;
  for (; j + 16 * kWide <= n; j += 16 * kWide) {
    TileF32<R, kWide>(a, kk, b + j, n, c + j, n, 0xFFFF);
  }
  if constexpr (kWide > 8) {
    for (; j + 128 <= n; j += 128) {
      TileF32<R, 8>(a, kk, b + j, n, c + j, n, 0xFFFF);
    }
  }
  if constexpr (kWide > 4) {
    for (; j + 64 <= n; j += 64) {
      TileF32<R, 4>(a, kk, b + j, n, c + j, n, 0xFFFF);
    }
  }
  for (; j + 16 <= n; j += 16) TileF32<R, 1>(a, kk, b + j, n, c + j, n, 0xFFFF);
  if (j < n) {
    const __mmask16 tail = static_cast<__mmask16>((1u << (n - j)) - 1);
    TileF32<R, 1>(a, kk, b + j, n, c + j, n, tail);
  }
}

__attribute__((target("avx512f"))) void MatMulF32Avx512(const float* ad,
                                                        const float* bd,
                                                        float* cd, size_t m,
                                                        size_t kk, size_t n) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) RowsF32<4>(ad + i * kk, bd, cd + i * n, kk, n);
  for (; i < m; ++i) RowsF32<1>(ad + i * kk, bd, cd + i * n, kk, n);
}

// C (+)= A·Bᵗ in floats, J output columns of a 16-row block at a time:
// the sixteen rows' A entries at step k are one gather, so each lane
// runs its entry's dot product as a serial FMA chain from zero in
// ascending k — the same chain as the scalar path.
template <int J>
__attribute__((target("avx512f"))) inline void TransBBlockF32(
    const float* a, const float* bt, float* c, size_t kk, size_t n,
    size_t rows, __m512i index, bool accumulate) {
  const __mmask16 mask =
      rows == 16 ? 0xFFFF : static_cast<__mmask16>((1u << rows) - 1);
  __m512 acc[J];
#pragma GCC unroll 4
  for (int jj = 0; jj < J; ++jj) acc[jj] = _mm512_setzero_ps();
  for (size_t k = 0; k < kk; ++k) {
    const __m512 av = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), mask,
                                               index, a + k, 4);
#pragma GCC unroll 4
    for (int jj = 0; jj < J; ++jj) {
      acc[jj] = _mm512_fmadd_ps(av, _mm512_set1_ps(bt[jj * kk + k]), acc[jj]);
    }
  }
  alignas(64) float lanes[J][16];
#pragma GCC unroll 4
  for (int jj = 0; jj < J; ++jj) _mm512_store_ps(lanes[jj], acc[jj]);
  for (size_t l = 0; l < rows; ++l) {
    float* crow = c + l * n;
    for (int jj = 0; jj < J; ++jj) {
      crow[jj] = accumulate ? crow[jj] + lanes[jj][l] : lanes[jj][l];
    }
  }
}

__attribute__((target("avx512f"))) void MatMulTransBF32Avx512(
    const float* ad, const float* bd, float* cd, size_t m, size_t kk,
    size_t n, bool accumulate) {
  const __m512i index = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<int>(kk)));
  for (size_t i = 0; i < m; i += 16) {
    const size_t rows = std::min<size_t>(16, m - i);
    const float* a = ad + i * kk;
    float* c = cd + i * n;
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      TransBBlockF32<4>(a, bd + j * kk, c + j, kk, n, rows, index, accumulate);
    }
    if (j + 2 <= n) {
      TransBBlockF32<2>(a, bd + j * kk, c + j, kk, n, rows, index, accumulate);
      j += 2;
    }
    if (j < n) {
      TransBBlockF32<1>(a, bd + j * kk, c + j, kk, n, rows, index, accumulate);
    }
  }
}

bool GemmHasAvx512() {
  static const bool ok = __builtin_cpu_supports("avx512f");
  return ok;
}

#endif  // __x86_64__

}  // namespace

// Function multiversioning for the GEMM kernels: the portable scalar
// build stays the default, and on x86-64 ELF targets the compiler also
// emits an AVX2+FMA clone selected once at load time via ifunc. Both
// the tape ops and the inference fast path call these same symbols, so
// whichever clone the loader picks is used consistently process-wide —
// results stay deterministic on a given machine. Disabled under
// sanitizers (ifunc resolvers run before their runtimes initialize).
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

DLACEP_GEMM_CLONES void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                bool accumulate) {
  DLACEP_CHECK(out != nullptr);
  DLACEP_CHECK_EQ(a.cols(), b.rows());
  DLACEP_CHECK_EQ(out->rows(), a.rows());
  DLACEP_CHECK_EQ(out->cols(), b.cols());
  const size_t m = a.rows();
  const size_t kk = a.cols();
  const size_t n = b.cols();
  if (!accumulate) out->Fill(0.0);
  const double* ad = a.data();
  const double* bd = b.data();
  double* cd = out->data();
  size_t row0 = 0;
#if defined(__x86_64__)
  if (m >= 4 && n >= 8 && GemmHasAvx512()) {
    const size_t m4 = m & ~static_cast<size_t>(3);
    MatMulTileAvx512(ad, bd, cd, m4, kk, n);
    if (m4 == m) return;
    row0 = m4;  // leftover rows (< 4) fall through to the row sweep
  }
#endif
  for (size_t kb = 0; kb < kk; kb += kBlockK) {
    const size_t kend = std::min(kk, kb + kBlockK);
    // 4×4 register tile: four A rows share each loaded B row, so the
    // j sweep does 32 flops per 4 B loads instead of 8. Per-element
    // accumulation order matches the single-row path below — i-blocking
    // never reassociates a C entry's sum.
    size_t i = row0;
    for (; i + 4 <= m; i += 4) {
      const double* ar0 = ad + i * kk;
      const double* ar1 = ar0 + kk;
      const double* ar2 = ar1 + kk;
      const double* ar3 = ar2 + kk;
      double* c0 = cd + i * n;
      double* c1 = c0 + n;
      double* c2 = c1 + n;
      double* c3 = c2 + n;
      size_t k = kb;
      for (; k + 4 <= kend; k += 4) {
        const double a00 = ar0[k], a01 = ar0[k + 1], a02 = ar0[k + 2],
                     a03 = ar0[k + 3];
        const double a10 = ar1[k], a11 = ar1[k + 1], a12 = ar1[k + 2],
                     a13 = ar1[k + 3];
        const double a20 = ar2[k], a21 = ar2[k + 1], a22 = ar2[k + 2],
                     a23 = ar2[k + 3];
        const double a30 = ar3[k], a31 = ar3[k + 1], a32 = ar3[k + 2],
                     a33 = ar3[k + 3];
        const double* b0 = bd + k * n;
        const double* b1 = b0 + n;
        const double* b2 = b1 + n;
        const double* b3 = b2 + n;
        for (size_t j = 0; j < n; ++j) {
          const double bv0 = b0[j];
          const double bv1 = b1[j];
          const double bv2 = b2[j];
          const double bv3 = b3[j];
          c0[j] += a00 * bv0 + a01 * bv1 + a02 * bv2 + a03 * bv3;
          c1[j] += a10 * bv0 + a11 * bv1 + a12 * bv2 + a13 * bv3;
          c2[j] += a20 * bv0 + a21 * bv1 + a22 * bv2 + a23 * bv3;
          c3[j] += a30 * bv0 + a31 * bv1 + a32 * bv2 + a33 * bv3;
        }
      }
      for (; k < kend; ++k) {
        const double a0 = ar0[k];
        const double a1 = ar1[k];
        const double a2 = ar2[k];
        const double a3 = ar3[k];
        const double* brow = bd + k * n;
        for (size_t j = 0; j < n; ++j) {
          const double bv = brow[j];
          c0[j] += a0 * bv;
          c1[j] += a1 * bv;
          c2[j] += a2 * bv;
          c3[j] += a3 * bv;
        }
      }
    }
    for (; i < m; ++i) {
      const double* arow = ad + i * kk;
      double* crow = cd + i * n;
      size_t k = kb;
      for (; k + 4 <= kend; k += 4) {
        const double a0 = arow[k];
        const double a1 = arow[k + 1];
        const double a2 = arow[k + 2];
        const double a3 = arow[k + 3];
        const double* b0 = bd + k * n;
        const double* b1 = b0 + n;
        const double* b2 = b1 + n;
        const double* b3 = b2 + n;
        for (size_t j = 0; j < n; ++j) {
          crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
      }
      for (; k < kend; ++k) {
        const double ak = arow[k];
        const double* brow = bd + k * n;
        for (size_t j = 0; j < n; ++j) crow[j] += ak * brow[j];
      }
    }
  }
}

DLACEP_GEMM_CLONES void MatMulTransBInto(const Matrix& a, const Matrix& b_t, Matrix* out,
                      bool accumulate) {
  DLACEP_CHECK(out != nullptr);
  DLACEP_CHECK_EQ(a.cols(), b_t.cols());
  DLACEP_CHECK_EQ(out->rows(), a.rows());
  DLACEP_CHECK_EQ(out->cols(), b_t.rows());
  const size_t m = a.rows();
  const size_t kk = a.cols();
  const size_t n = b_t.rows();
  const double* ad = a.data();
  const double* bd = b_t.data();
  double* cd = out->data();
  for (size_t i = 0; i < m; ++i) {
    const double* arow = ad + i * kk;
    double* crow = cd + i * n;
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = bd + j * kk;
      const double* b1 = b0 + kk;
      const double* b2 = b1 + kk;
      const double* b3 = b2 + kk;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (size_t k = 0; k < kk; ++k) {
        const double av = arow[k];
        s0 += av * b0[k];
        s1 += av * b1[k];
        s2 += av * b2[k];
        s3 += av * b3[k];
      }
      if (accumulate) {
        crow[j] += s0;
        crow[j + 1] += s1;
        crow[j + 2] += s2;
        crow[j + 3] += s3;
      } else {
        crow[j] = s0;
        crow[j + 1] = s1;
        crow[j + 2] = s2;
        crow[j + 3] = s3;
      }
    }
    for (; j < n; ++j) {
      const double* brow = bd + j * kk;
      double sum = 0.0;
      for (size_t k = 0; k < kk; ++k) sum += arow[k] * brow[k];
      if (accumulate) {
        crow[j] += sum;
      } else {
        crow[j] = sum;
      }
    }
  }
}

// Float GEMMs: one serial FMA chain per entry on every dispatch. The
// AVX-512 kernels above run wherever the CPU has them; elsewhere the
// loops below run as the x86-64-v3 clone (vectorized across j, FMA
// instructions) or the portable default (libm fmaf), with the same
// per-entry chain and so the same bits.
DLACEP_GEMM_CLONES void MatMulInto(const MatrixF& a, const MatrixF& b,
                                   MatrixF* out, bool accumulate) {
  DLACEP_CHECK(out != nullptr);
  DLACEP_CHECK_EQ(a.cols(), b.rows());
  DLACEP_CHECK_EQ(out->rows(), a.rows());
  DLACEP_CHECK_EQ(out->cols(), b.cols());
  const size_t m = a.rows();
  const size_t kk = a.cols();
  const size_t n = b.cols();
  if (!accumulate) out->Fill(0.0f);
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = out->data();
#if defined(__x86_64__)
  if (GemmHasAvx512()) {
    MatMulF32Avx512(ad, bd, cd, m, kk, n);
    return;
  }
#endif
  for (size_t i = 0; i < m; ++i) {
    float* crow = cd + i * n;
    for (size_t k = 0; k < kk; ++k) {
      const float ak = ad[i * kk + k];
      const float* brow = bd + k * n;
      for (size_t j = 0; j < n; ++j) crow[j] = std::fma(ak, brow[j], crow[j]);
    }
  }
}

DLACEP_GEMM_CLONES void MatMulTransBInto(const MatrixF& a,
                                         const MatrixF& b_t, MatrixF* out,
                                         bool accumulate) {
  DLACEP_CHECK(out != nullptr);
  DLACEP_CHECK_EQ(a.cols(), b_t.cols());
  DLACEP_CHECK_EQ(out->rows(), a.rows());
  DLACEP_CHECK_EQ(out->cols(), b_t.rows());
  const size_t m = a.rows();
  const size_t kk = a.cols();
  const size_t n = b_t.rows();
  const float* ad = a.data();
  const float* bd = b_t.data();
  float* cd = out->data();
#if defined(__x86_64__)
  if (GemmHasAvx512()) {
    MatMulTransBF32Avx512(ad, bd, cd, m, kk, n, accumulate);
    return;
  }
#endif
  for (size_t i = 0; i < m; ++i) {
    const float* arow = ad + i * kk;
    float* crow = cd + i * n;
    for (size_t j = 0; j < n; ++j) {
      const float* brow = bd + j * kk;
      float sum = 0.0f;
      for (size_t k = 0; k < kk; ++k) sum = std::fma(arow[k], brow[k], sum);
      crow[j] = accumulate ? crow[j] + sum : sum;
    }
  }
}

DLACEP_GEMM_CLONES void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* out,
                      bool accumulate) {
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
  size_t k = 0;
  for (; k + 4 <= kk; k += 4) {
    const double* ar0 = ad + k * m;
    const double* ar1 = ar0 + m;
    const double* ar2 = ar1 + m;
    const double* ar3 = ar2 + m;
    const double* br0 = bd + k * n;
    const double* br1 = br0 + n;
    const double* br2 = br1 + n;
    const double* br3 = br2 + n;
    for (size_t i = 0; i < m; ++i) {
      const double a0 = ar0[i];
      const double a1 = ar1[i];
      const double a2 = ar2[i];
      const double a3 = ar3[i];
      double* crow = cd + i * n;
      for (size_t j = 0; j < n; ++j) {
        crow[j] += a0 * br0[j] + a1 * br1[j] + a2 * br2[j] + a3 * br3[j];
      }
    }
  }
  for (; k < kk; ++k) {
    const double* arow = ad + k * m;
    const double* brow = bd + k * n;
    for (size_t i = 0; i < m; ++i) {
      const double aki = arow[i];
      double* crow = cd + i * n;
      for (size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
}

}  // namespace dlacep
