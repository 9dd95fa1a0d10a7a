// Dense vector kernels shared across the suite (BLAS-1 style).
//
// These are the hot loops of the compressors and the training substrate;
// they are written as plain, auto-vectorizable loops over spans (the
// environment has no GPU, and the simulated time model — not CPU wall time
// — is what reproduces the paper's throughput numbers).
#pragma once

#include <cstddef>
#include <span>

namespace gcs {

/// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y) noexcept;

/// x *= alpha
void scale(std::span<float> x, float alpha) noexcept;

/// Dot product (FP64 accumulation for stability).
double dot(std::span<const float> a, std::span<const float> b) noexcept;

/// Squared L2 norm (FP64 accumulation).
double squared_norm(std::span<const float> x) noexcept;

/// L2 norm.
double norm(std::span<const float> x) noexcept;

/// Element-wise a + b -> out (used by reference aggregators).
void add(std::span<const float> a, std::span<const float> b,
         std::span<float> out) noexcept;

/// out = a - b
void sub(std::span<const float> a, std::span<const float> b,
         std::span<float> out) noexcept;

/// Index of the maximum |x[i]| (returns 0 on empty input).
std::size_t argmax_abs(std::span<const float> x) noexcept;

/// Mean squared error between two equal-length spans (FP64 accumulation).
double mse(std::span<const float> a, std::span<const float> b) noexcept;

/// Row-major matrix multiply: C[m x n] = A[m x k] * B[k x n], on the
/// kernel backend (kernels::Backend::matmul defines the summation order and
/// the zero skip).
void matmul(std::span<const float> a, std::span<const float> b,
            std::span<float> c, std::size_t m, std::size_t k,
            std::size_t n);

/// C[m x n] = A^T[m x k] * B[k x n] where A is stored k x m row-major
/// (kernels::Backend::matmul_at).
void matmul_at(std::span<const float> a, std::span<const float> b,
               std::span<float> c, std::size_t m, std::size_t k,
               std::size_t n);

}  // namespace gcs
