// Dense row-major matrix — the numeric carrier of the nn library, in two
// element types. `Matrix` (double) carries training: the autograd tape,
// gradients, the CRF and every loss, where double precision keeps the
// finite-difference gradient checks tight at the small model sizes this
// reproduction uses. `MatrixF` (float) carries the frozen inference
// trunk (nn/infer.h), whose recurrence is bound by weight bandwidth, so
// half-width weights run it about three times as fast. Float storage is
// 64-byte aligned: one cache line, one zmm register.

#ifndef DLACEP_NN_MATRIX_H_
#define DLACEP_NN_MATRIX_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace dlacep {

/// Allocator handing out 64-byte-aligned blocks, so every row slab of
/// the frozen trunk starts on a cache-line boundary whatever malloc
/// returns.
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlignment{64};

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlignment));
  }
  void deallocate(T* p, size_t) { ::operator delete(p, kAlignment); }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const {
    return true;
  }
};

/// Element storage of MatrixT<T>. The frozen trunk's floats are 64-byte
/// aligned. The tape's doubles stay on std::allocator: on aligned
/// storage bench_micro_nn's BM_TrainingStep ran 1.3–1.6× slower (1.40
/// and 1.50 ms against 0.89 and 1.11 ms, medians of two 7-run series on
/// a 4-vCPU AVX-512 VM), although BM_BiLstmForwardHidden/96/32 ran 2×
/// faster (3.9 against 7.6 ms).
template <typename T>
using MatrixStorage =
    std::vector<T, std::conditional_t<std::is_same_v<T, float>,
                                      AlignedAllocator<T>, std::allocator<T>>>;

template <typename T>
class MatrixT {
 public:
  using value_type = T;

  MatrixT() = default;
  MatrixT(size_t rows, size_t cols, T fill = T(0))
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static MatrixT Zeros(size_t rows, size_t cols) {
    return MatrixT(rows, cols, T(0));
  }
  /// Gaussian init with the given stddev.
  static MatrixT Randn(size_t rows, size_t cols, double stddev, Rng* rng);
  /// Glorot/Xavier-uniform init for a (fan_in × fan_out) weight.
  static MatrixT Xavier(size_t rows, size_t cols, Rng* rng);
  /// 1×n row from a std::vector.
  static MatrixT Row(const std::vector<T>& values);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  // Element access sits on the innermost loops of every layer; bounds
  // checks are compiled out of release builds (NDEBUG).
  T& operator()(size_t r, size_t c) {
#ifndef NDEBUG
    DLACEP_CHECK_LT(r, rows_);
    DLACEP_CHECK_LT(c, cols_);
#endif
    return data_[r * cols_ + c];
  }
  T operator()(size_t r, size_t c) const {
#ifndef NDEBUG
    DLACEP_CHECK_LT(r, rows_);
    DLACEP_CHECK_LT(c, cols_);
#endif
    return data_[r * cols_ + c];
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  void Fill(T value) { data_.assign(data_.size(), value); }

  /// Reshapes to rows×cols reusing the existing storage where possible
  /// (shrinking never reallocates). Contents are unspecified afterwards;
  /// callers must overwrite every entry or Fill(). This is what lets the
  /// inference scratch arena recycle buffers across windows of varying
  /// sequence length without churning the allocator.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// this += other (same shape).
  void AddInPlace(const MatrixT& other);
  /// this += scale * other (same shape).
  void AxpyInPlace(T scale, const MatrixT& other);
  /// Frobenius norm.
  T Norm() const;
  /// Sum of all entries.
  T Sum() const;
  /// Elementwise maximum absolute difference against `other`.
  T MaxAbsDiff(const MatrixT& other) const;

  bool SameShape(const MatrixT& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  MatrixStorage<T> data_;
};

using Matrix = MatrixT<double>;
using MatrixF = MatrixT<float>;

extern template class MatrixT<double>;
extern template class MatrixT<float>;

/// Elementwise conversion between element types (rounding to nearest
/// when narrowing): how Freeze() turns trained weights into the frozen
/// trunk's floats, and how tests widen a frozen activation to compare
/// it against the tape.
template <typename To, typename From>
MatrixT<To> CastMatrix(const MatrixT<From>& m) {
  MatrixT<To> out(m.rows(), m.cols());
  for (size_t i = 0; i < m.size(); ++i) {
    out.data()[i] = static_cast<To>(m.data()[i]);
  }
  return out;
}

/// out = a × b (plain, non-autograd product). Implemented on top of
/// MatMulInto.
Matrix MatMulPlain(const Matrix& a, const Matrix& b);

// Shared GEMM kernels, one overload per element type and one kernel per
// layout behind both. All write into a caller-provided, pre-shaped
// output: with accumulate=false the output is overwritten, with
// accumulate=true the product is added on top (the shape gradient
// accumulation needs).
//
// In both precisions every output entry is one serial fused
// multiply-add chain over k, c = fma(a_k, b_k, c), in ascending k, on
// every dispatch (AVX-512 kernels, x86-64-v3/v4 clones, portable
// std::fma). A row's result is therefore bit-identical whatever rows
// ride beside it and whichever CPU runs it — the property that makes a
// frozen window's activations independent of the tile its rows land
// in, and a tape row independent of its neighbours.

/// out (+)= a × b. a: M×K, b: K×N, out: M×N.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                bool accumulate = false);
void MatMulInto(const MatrixF& a, const MatrixF& b, MatrixF* out,
                bool accumulate = false);

/// out (+)= a × bᵗ where `b_t` is stored already transposed (N×K).
/// Every output entry is a dot product of two contiguous rows — the
/// layout the inference path repacks Dense weights into at freeze time.
/// The dot product is accumulated from zero and then stored or added.
void MatMulTransBInto(const Matrix& a, const Matrix& b_t, Matrix* out,
                      bool accumulate = false);
void MatMulTransBInto(const MatrixF& a, const MatrixF& b_t, MatrixF* out,
                      bool accumulate = false);

/// out (+)= aᵗ × b where `a` is stored untransposed (K×M), b: K×N.
/// Training only (the backward of MatMul).
void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* out,
                      bool accumulate = false);

}  // namespace dlacep

#endif  // DLACEP_NN_MATRIX_H_
