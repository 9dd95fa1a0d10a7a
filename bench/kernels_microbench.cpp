// google-benchmark microbenchmarks for the compression kernels.
//
// These measure the REAL CPU kernels (the tables' throughput numbers come
// from the calibrated testbed model; these benches validate the relative
// ordering the model assumes: selection > chunk-norms, full RHT > partial
// RHT, orthogonalization superlinear in r, etc.).
// The BM_Kernel* group benches the src/kernels backends head to head
// (scalar vs AVX2, selected per benchmark instance, no global dispatch
// involved); bytes_per_second is the per-kernel MB/s a backend sustains on
// the fp32 input side.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "hadamard/hadamard.h"
#include "kernels/kernels.h"
#include "lowrank/orthogonalize.h"
#include "numeric/half.h"
#include "quant/packing.h"
#include "quant/quantize.h"
#include "quant/satint.h"
#include "sparse/chunks.h"
#include "sparse/sparse_wire.h"
#include "sparse/topk.h"

namespace {

using namespace gcs;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<float> x(n);
  for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
  return x;
}

void BM_FwhtFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_vec(n);
  for (auto _ : state) {
    fwht(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_FwhtFull)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_FwhtPartial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto iters = static_cast<unsigned>(state.range(1));
  auto x = random_vec(n);
  for (auto _ : state) {
    fwht(std::span<float>(x), iters);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_FwhtPartial)->Args({1 << 20, 13})->Args({1 << 20, 8});

void BM_TopKSelect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto x = random_vec(n);
  for (auto _ : state) {
    auto idx = top_k_indices(x, k);
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_TopKSelect)
    ->Args({1 << 20, 1 << 14})
    ->Args({1 << 20, 1 << 17});

void BM_ChunkNorms(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec(n);
  std::vector<float> norms(num_chunks(n, 64));
  for (auto _ : state) {
    chunk_squared_norms(x, 64, norms);
    benchmark::DoNotOptimize(norms.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ChunkNorms)->Arg(1 << 20);

void BM_QuantizeStochastic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto q = static_cast<unsigned>(state.range(1));
  const auto x = random_vec(n);
  const auto range = compute_range(x);
  std::vector<std::uint16_t> levels(n);
  Rng rng(2);
  for (auto _ : state) {
    quantize_stochastic(x, range, q, rng, levels);
    benchmark::DoNotOptimize(levels.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_QuantizeStochastic)->Args({1 << 18, 2})->Args({1 << 18, 4});

void BM_PackLanes(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto bits = static_cast<unsigned>(state.range(1));
  std::vector<std::uint16_t> levels(n);
  Rng rng(3);
  for (auto& l : levels) {
    l = static_cast<std::uint16_t>(rng.next_u64() & ((1u << bits) - 1));
  }
  for (auto _ : state) {
    auto packed = pack_lanes(levels, bits);
    benchmark::DoNotOptimize(packed.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_PackLanes)->Args({1 << 18, 2})->Args({1 << 18, 4});

void BM_Orthogonalize(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto r = static_cast<std::size_t>(state.range(1));
  const auto src = random_vec(rows * r, 5);
  std::vector<float> m = src;
  for (auto _ : state) {
    m = src;
    orthogonalize_columns(m, rows, r);
    benchmark::DoNotOptimize(m.data());
  }
  // FLOP count grows as r^2: the superlinear term behind Table 9.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              orthogonalize_flops(rows, r)));
}
BENCHMARK(BM_Orthogonalize)
    ->Args({4096, 4})
    ->Args({4096, 16})
    ->Args({4096, 64});

void BM_Fp16RoundTrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_vec(n, 6);
  for (auto _ : state) {
    round_trip_half(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_Fp16RoundTrip)->Arg(1 << 18);

void BM_SparseEncodeDecode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto x = random_vec(n, 7);
  const auto idx = top_k_indices(x, k);
  const auto sparse = extract_sparse(x, idx);
  for (auto _ : state) {
    const auto buf = encode_sparse_fp16(sparse);
    auto back = decode_sparse_fp16(buf);
    benchmark::DoNotOptimize(back.indices.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_SparseEncodeDecode)->Args({1 << 20, 1 << 14});

// ---- src/kernels backend benches (per-kernel MB/s, scalar vs AVX2) ----

/// Picks the backend for a BM_Kernel* instance from benchmark arg 0
/// (0 = scalar, 1 = avx2); returns null when the host lacks AVX2.
const kernels::Backend* backend_arg(benchmark::State& state) {
  if (state.range(0) == 0) return &kernels::scalar();
  if (!kernels::avx2_supported()) {
    state.SkipWithError("AVX2 not supported on this host");
    return nullptr;
  }
  return &kernels::avx2();
}

void set_fp32_bytes(benchmark::State& state, std::size_t n) {
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}

void BM_KernelFp32ToFp16(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  const auto x = random_vec(n, 21);
  std::vector<std::uint16_t> out(n);
  for (auto _ : state) {
    backend->fp32_to_fp16(x.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelFp32ToFp16)->Arg(0)->Arg(1);

void BM_KernelFp16ToFp32(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  const auto x = random_vec(n, 22);
  std::vector<std::uint16_t> half(n);
  kernels::scalar().fp32_to_fp16(x.data(), n, half.data());
  std::vector<float> out(n);
  for (auto _ : state) {
    backend->fp16_to_fp32(half.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelFp16ToFp32)->Arg(0)->Arg(1);

void BM_KernelGatherFp16(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20, k = 1 << 16;
  const auto x = random_vec(n, 23);
  const auto idx = top_k_indices(x, k);
  std::vector<std::uint16_t> out(k);
  for (auto _ : state) {
    backend->gather_fp32_to_fp16(x.data(), idx.data(), k, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  set_fp32_bytes(state, k);
}
BENCHMARK(BM_KernelGatherFp16)->Arg(0)->Arg(1);

void BM_KernelFwhtLevel(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  auto x = random_vec(n, 24);
  const auto h = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    backend->fwht_level(x.data(), n, h);
    benchmark::DoNotOptimize(x.data());
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelFwhtLevel)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 256})
    ->Args({1, 256});

void BM_KernelAdd(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  const auto a = random_vec(n, 28);
  const auto b = random_vec(n, 29);
  std::vector<float> out(n);
  for (auto _ : state) {
    backend->add(a.data(), b.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelAdd)->Arg(0)->Arg(1);

void BM_KernelMinMax(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  const auto x = random_vec(n, 30);
  for (auto _ : state) {
    float lo, hi;
    backend->min_max(x.data(), n, &lo, &hi);
    benchmark::DoNotOptimize(lo);
    benchmark::DoNotOptimize(hi);
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelMinMax)->Arg(0)->Arg(1);

void BM_KernelThcEncodeLanes(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  const unsigned q = 4, b = 4;
  const auto x = random_vec(n, 25);
  std::vector<float> u(n);
  Rng rng(26);
  for (auto& v : u) v = rng.next_float();
  const auto range = compute_range(x);
  std::vector<std::uint8_t> out(n * b / 8);
  for (auto _ : state) {
    backend->thc_encode_lanes(x.data(), u.data(), n, range.lo, range.hi, q,
                              b, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelThcEncodeLanes)->Arg(0)->Arg(1);

void BM_KernelThcDecodeLanes(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  const unsigned q = 4, b = 4;
  std::vector<std::uint8_t> wire(n * b / 8);
  Rng rng(27);
  for (auto& v : wire) v = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<float> out(n);
  for (auto _ : state) {
    backend->thc_decode_lanes(wire.data(), n, -1.0f, 1.0f, q, b, 8,
                              out.data());
    benchmark::DoNotOptimize(out.data());
  }
  set_fp32_bytes(state, n);
}
BENCHMARK(BM_KernelThcDecodeLanes)->Arg(0)->Arg(1);

// The collectives' reduce hop (comm/reduce_op.h). Each iteration reduces
// one payload into the accumulator, alternating an input with its
// negation so the accumulator stays in range; bytes_per_second counts the
// payload bytes reduced.

void BM_KernelFp16Sum(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const std::size_t n = 1 << 20;
  const auto x = random_vec(n, 28);
  std::vector<std::uint16_t> plus(n), minus(n), acc(n);
  for (std::size_t i = 0; i < n; ++i) {
    plus[i] = float_to_half_bits(x[i]);
    minus[i] = float_to_half_bits(-x[i]);
  }
  bool flip = false;
  for (auto _ : state) {
    backend->fp16_sum(acc.data(), (flip ? minus : plus).data(), n);
    flip = !flip;
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(std::uint16_t)));
}
BENCHMARK(BM_KernelFp16Sum)->Arg(0)->Arg(1);

void BM_KernelSatAddPacked(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const auto bits = static_cast<unsigned>(state.range(1));
  const std::size_t nbytes = 1 << 20;
  const std::size_t lanes = nbytes * (8 / bits);
  std::vector<std::int32_t> values(lanes), negated(lanes);
  Rng rng(29);
  for (std::size_t i = 0; i < lanes; ++i) {
    // Small centered lanes, as THC's levels are: clips stay rare.
    values[i] = static_cast<std::int32_t>(rng.next_below(3)) - 1;
    negated[i] = -values[i];
  }
  const ByteBuffer plus = pack_signed_lanes(values, bits);
  const ByteBuffer minus = pack_signed_lanes(negated, bits);
  ByteBuffer acc = pack_signed_lanes(std::vector<std::int32_t>(lanes), bits);
  bool flip = false;
  std::size_t clips = 0;
  for (auto _ : state) {
    clips += backend->sat_add_packed(
        reinterpret_cast<std::uint8_t*>(acc.data()),
        reinterpret_cast<const std::uint8_t*>((flip ? minus : plus).data()),
        nbytes, bits);
    flip = !flip;
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(clips);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nbytes));
}
BENCHMARK(BM_KernelSatAddPacked)
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({0, 8})
    ->Args({1, 8});

// PowerSGD's low-rank products at the bench's layer shapes (rows x cols
// of M, rank r = 4; about 6% exact zeros in M, as in the products'
// skipped operand). bytes_per_second counts the M-sized side: M read for
// P = M Q and Q = M^T P, M_hat written for P Q^T.

constexpr std::size_t kLowRank = 4;

std::vector<float> low_rank_input(std::size_t n, std::uint64_t seed) {
  auto x = random_vec(n, seed);
  Rng rng(seed + 1);
  for (auto& v : x) {
    if (rng.next_below(16) == 0) v = 0.0f;
  }
  return x;
}

void set_matrix_bytes(benchmark::State& state, std::size_t rows,
                      std::size_t cols) {
  set_fp32_bytes(state, rows * cols);
}

void BM_KernelLowRankMul(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const auto rows = static_cast<std::size_t>(state.range(1));
  const auto cols = static_cast<std::size_t>(state.range(2));
  const auto m = low_rank_input(rows * cols, 31);
  const auto q = random_vec(cols * kLowRank, 32);
  std::vector<float> p(rows * kLowRank);
  for (auto _ : state) {
    backend->matmul(m.data(), q.data(), rows, cols, kLowRank, p.data());
    benchmark::DoNotOptimize(p.data());
    benchmark::ClobberMemory();
  }
  set_matrix_bytes(state, rows, cols);
}

void BM_KernelLowRankMulT(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const auto rows = static_cast<std::size_t>(state.range(1));
  const auto cols = static_cast<std::size_t>(state.range(2));
  const auto m = low_rank_input(rows * cols, 33);
  const auto p = random_vec(rows * kLowRank, 34);
  std::vector<float> q(cols * kLowRank);
  for (auto _ : state) {
    backend->matmul_at(m.data(), p.data(), cols, rows, kLowRank, q.data());
    benchmark::DoNotOptimize(q.data());
    benchmark::ClobberMemory();
  }
  set_matrix_bytes(state, rows, cols);
}

void BM_KernelLowRankOuter(benchmark::State& state) {
  const auto* backend = backend_arg(state);
  if (backend == nullptr) return;
  const auto rows = static_cast<std::size_t>(state.range(1));
  const auto cols = static_cast<std::size_t>(state.range(2));
  const auto p = random_vec(rows * kLowRank, 35);
  const auto q = random_vec(cols * kLowRank, 36);
  std::vector<float> m_hat(rows * cols);
  for (auto _ : state) {
    backend->matmul_bt(p.data(), q.data(), rows, kLowRank, cols,
                       m_hat.data());
    benchmark::DoNotOptimize(m_hat.data());
    benchmark::ClobberMemory();
  }
  set_matrix_bytes(state, rows, cols);
}

void low_rank_shapes(benchmark::internal::Benchmark* b) {
  for (const auto& shape : {std::pair{256, 768}, std::pair{1024, 256}}) {
    for (int backend : {0, 1}) {
      b->Args({backend, shape.first, shape.second});
    }
  }
}
BENCHMARK(BM_KernelLowRankMul)->Apply(low_rank_shapes);
BENCHMARK(BM_KernelLowRankMulT)->Apply(low_rank_shapes);
BENCHMARK(BM_KernelLowRankOuter)->Apply(low_rank_shapes);

}  // namespace

BENCHMARK_MAIN();
