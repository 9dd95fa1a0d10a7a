#include "lowrank/powersgd_step.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "tensor/vecops.h"

namespace gcs {

std::size_t effective_rank(std::size_t rows, std::size_t cols,
                           std::size_t rank) noexcept {
  return std::min({rank, rows, cols});
}

PowerSgdLayerState PowerSgdLayerState::init(std::size_t rows, std::size_t cols,
                                            std::size_t rank, Rng& rng) {
  PowerSgdLayerState st;
  st.rows = rows;
  st.cols = cols;
  st.rank = effective_rank(rows, cols, rank);
  GCS_CHECK(st.rank >= 1);
  st.q.resize(cols * st.rank);
  for (float& v : st.q) v = static_cast<float>(rng.next_gaussian());
  return st;
}

void powersgd_compute_p(std::span<const float> m,
                        const PowerSgdLayerState& st, std::span<float> p) {
  GCS_CHECK(m.size() >= st.rows * st.cols);
  GCS_CHECK(p.size() >= st.rows * st.rank);
  matmul(m, st.q, p, st.rows, st.cols, st.rank);
}

void powersgd_compute_q(std::span<const float> m,
                        const PowerSgdLayerState& st,
                        std::span<const float> p, std::span<float> q_out) {
  GCS_CHECK(m.size() >= st.rows * st.cols);
  GCS_CHECK(q_out.size() >= st.cols * st.rank);
  // Q = M^T P: M is rows x cols, so M^T is cols x rows; matmul_at treats
  // its first argument as stored k x m with k = rows, m = cols.
  matmul_at(m, p, q_out, st.cols, st.rows, st.rank);
}

void powersgd_reconstruct(const PowerSgdLayerState& st,
                          std::span<const float> p, std::span<const float> q,
                          std::span<float> m_hat) {
  GCS_CHECK(m_hat.size() >= st.rows * st.cols);
  GCS_CHECK(p.size() >= st.rows * st.rank);
  GCS_CHECK(q.size() >= st.cols * st.rank);
  // M_hat[i, j] = sum_k P[i, k] * Q[j, k]: P (rows x rank) times Q^T, with
  // Q stored cols x rank.
  kernels::active().matmul_bt(p.data(), q.data(), st.rows, st.rank, st.cols,
                              m_hat.data());
}

}  // namespace gcs
