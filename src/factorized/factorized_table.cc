#include "factorized/factorized_table.h"

#include <algorithm>
#include <limits>

#include "common/parallel_for.h"

namespace amalur {
namespace factorized {

namespace {
// ParallelFor grains for the rewrite kernels. Plans are processed serially
// (different plans may touch the same target rows/columns); within a plan
// every parallel loop partitions disjoint output, so results are
// bitwise-equal to the serial kernels at any thread count.
constexpr size_t kUniqueGrain = 32;  // unique-source-row loops
constexpr size_t kExpandGrain = 512; // target-row fan-out loops
constexpr size_t kColumnGrain = 8;   // target-column band loops

constexpr metadata::RowId kNoSlot =
    std::numeric_limits<metadata::RowId>::max();

/// Σ_p d_row[dk_cols[p]] · X[t_cols[p], c] over a class's allowed column
/// pairs, p ascending, skipping exact-zero cells; X is row-major with n
/// columns. Every LMM-shaped kernel (the LMM in both of its paths, the
/// partial scores) forms its sums here, so they agree bit for bit.
double PairDot(const double* d_row, const std::vector<size_t>& dk_cols,
               const std::vector<size_t>& t_cols, const double* x, size_t n,
               size_t c) {
  double acc = 0.0;
  for (size_t p = 0; p < dk_cols.size(); ++p) {
    const double v = d_row[dk_cols[p]];
    if (v == 0.0) continue;
    acc += v * x[t_cols[p] * n + c];
  }
  return acc;
}
}  // namespace

FactorizedTable::FactorizedTable(metadata::DiMetadata metadata)
    : metadata_(std::move(metadata)) {
  BuildPlans(/*ignore_redundancy=*/false);
}

void FactorizedTable::BuildPlans(bool ignore_redundancy) {
  plans_.clear();
  plans_.resize(metadata_.num_sources());
  max_fanout_unique_rows_ = 0;
  std::vector<metadata::RowId> slot;    // D_k row -> unique index in class
  std::vector<metadata::RowId> cursor;  // fan-out fill positions
  for (size_t k = 0; k < metadata_.num_sources(); ++k) {
    const metadata::SourceMetadata& source = metadata_.source(k);
    const std::vector<int64_t>& indicator = source.indicator.values();

    // Mapped (D_k column, target column) pairs in D_k order.
    std::vector<size_t> all_dk_cols;
    std::vector<size_t> all_t_cols;
    for (size_t c = 0; c < source.mapping.target_cols(); ++c) {
      const int64_t j = source.mapping.At(c);
      if (j >= 0) {
        all_dk_cols.push_back(static_cast<size_t>(j));
        all_t_cols.push_back(c);
      }
    }

    std::vector<std::vector<metadata::RowId>> classes =
        metadata::RowClassTargets(source, ignore_redundancy);
    slot.assign(source.data.rows(), kNoSlot);
    plans_[k].reserve(classes.size());
    for (size_t c = 0; c < classes.size(); ++c) {
      if (classes[c].empty()) continue;
      RowClassPlan plan;
      // Allowed column pairs: the full set minus the class's masked columns.
      const std::vector<size_t>* masked =
          c == 0 ? nullptr : &source.redundancy.column_sets()[c - 1];
      for (size_t p = 0; p < all_dk_cols.size(); ++p) {
        if (masked == nullptr || !std::binary_search(masked->begin(),
                                                     masked->end(),
                                                     all_t_cols[p])) {
          plan.dk_cols.push_back(all_dk_cols[p]);
          plan.t_cols.push_back(all_t_cols[p]);
        }
      }
      if (plan.dk_cols.empty()) continue;

      // Deduplicate source rows in order of first appearance: `slot` is
      // kNoSlot outside the class being built.
      plan.target_rows = std::move(classes[c]);
      const size_t num_targets = plan.target_rows.size();
      plan.target_to_unique.resize(num_targets);
      metadata::RowId num_unique = 0;
      for (size_t r = 0; r < num_targets; ++r) {
        const auto row = static_cast<size_t>(indicator[plan.target_rows[r]]);
        metadata::RowId& u = slot[row];
        if (u == kNoSlot) u = num_unique++;
        plan.target_to_unique[r] = u;
      }
      plan.unique_source_rows.resize(num_unique);
      for (size_t r = 0; r < num_targets; ++r) {
        plan.unique_source_rows[plan.target_to_unique[r]] =
            static_cast<metadata::RowId>(indicator[plan.target_rows[r]]);
      }
      for (metadata::RowId row : plan.unique_source_rows) slot[row] = kNoSlot;

      // Reverse fan-out index (unique row -> its target rows, class order).
      plan.fanout_offsets.assign(num_unique + 1, 0);
      for (metadata::RowId u : plan.target_to_unique) {
        ++plan.fanout_offsets[u + 1];
      }
      for (size_t u = 0; u < num_unique; ++u) {
        plan.fanout_offsets[u + 1] += plan.fanout_offsets[u];
      }
      plan.fanout_targets.resize(num_targets);
      cursor.assign(plan.fanout_offsets.begin(), plan.fanout_offsets.end() - 1);
      for (size_t r = 0; r < num_targets; ++r) {
        plan.fanout_targets[cursor[plan.target_to_unique[r]]++] =
            plan.target_rows[r];
      }
      if (!plan.NoFanout()) {
        max_fanout_unique_rows_ =
            std::max(max_fanout_unique_rows_, size_t{num_unique});
      }
      plans_[k].push_back(std::move(plan));
    }
  }
}

void FactorizedTable::ReserveScratch(size_t n,
                                     std::vector<double>* scratch) const {
  if (scratch->size() < max_fanout_unique_rows_ * n) {
    scratch->resize(max_fanout_unique_rows_ * n);
  }
}

la::DenseMatrix FactorizedTable::LeftMultiply(const la::DenseMatrix& x) const {
  la::DenseMatrix out(rows(), x.cols());
  std::vector<double> scratch;
  LeftMultiplyInto(x, &out, &scratch);
  return out;
}

void FactorizedTable::LeftMultiplyInto(const la::DenseMatrix& x,
                                       la::DenseMatrix* out,
                                       std::vector<double>* scratch) const {
  AMALUR_CHECK_EQ(x.rows(), cols()) << "LMM: X must have cT rows";
  AMALUR_CHECK(out->rows() == rows() && out->cols() == x.cols())
      << "LMM: out must be rT x n";
  ReserveScratch(x.cols(), scratch);
  if (x.cols() == 1) {
    LeftMultiplyKernel<1>(x, out, scratch->data());
  } else {
    LeftMultiplyKernel<0>(x, out, scratch->data());
  }
}

template <size_t kCols>
void FactorizedTable::LeftMultiplyKernel(const la::DenseMatrix& x,
                                         la::DenseMatrix* out,
                                         double* unique) const {
  const size_t n = kCols != 0 ? kCols : x.cols();
  const double* xd = x.data();
  std::fill(out->data(), out->data() + out->size(), 0.0);
  for (size_t k = 0; k < metadata_.num_sources(); ++k) {
    const la::DenseMatrix& dk = metadata_.source(k).data;
    for (const RowClassPlan& plan : plans_[k]) {
      const size_t num_unique = plan.unique_source_rows.size();
      if (plan.NoFanout()) {
        // Target row r is unique row r: add each product straight into out.
        // Parallel over unique rows — disjoint `out` rows.
        common::ParallelFor(
            0, num_unique, kUniqueGrain, [&](size_t u_begin, size_t u_end) {
              for (size_t u = u_begin; u < u_end; ++u) {
                const double* d_row = dk.RowPtr(plan.unique_source_rows[u]);
                double* out_row = out->RowPtr(plan.target_rows[u]);
                for (size_t c = 0; c < n; ++c) {
                  out_row[c] +=
                      PairDot(d_row, plan.dk_cols, plan.t_cols, xd, n, c);
                }
              }
            });
        continue;
      }
      // Compute once per unique source row: U = D_k[rows, cols] · X[t_cols].
      // Parallel over unique rows — each chunk writes disjoint `unique` rows.
      common::ParallelFor(
          0, num_unique, kUniqueGrain, [&](size_t u_begin, size_t u_end) {
            for (size_t u = u_begin; u < u_end; ++u) {
              const double* d_row = dk.RowPtr(plan.unique_source_rows[u]);
              for (size_t c = 0; c < n; ++c) {
                unique[u * n + c] =
                    PairDot(d_row, plan.dk_cols, plan.t_cols, xd, n, c);
              }
            }
          });
      // Expand through the indicator (fan-out rows share one computation).
      // A class's target rows are distinct, so chunks write disjoint rows.
      common::ParallelFor(
          0, plan.target_rows.size(), kExpandGrain,
          [&](size_t r_begin, size_t r_end) {
            for (size_t r = r_begin; r < r_end; ++r) {
              const double* u_row = unique + plan.target_to_unique[r] * n;
              double* out_row = out->RowPtr(plan.target_rows[r]);
              for (size_t c = 0; c < n; ++c) out_row[c] += u_row[c];
            }
          });
    }
  }
}

la::DenseMatrix FactorizedTable::TransposeLeftMultiply(
    const la::DenseMatrix& x) const {
  la::DenseMatrix out(cols(), x.cols());
  std::vector<double> scratch;
  TransposeLeftMultiplyInto(x, &out, &scratch);
  return out;
}

void FactorizedTable::TransposeLeftMultiplyInto(
    const la::DenseMatrix& x, la::DenseMatrix* out,
    std::vector<double>* scratch) const {
  AMALUR_CHECK_EQ(x.rows(), rows()) << "TᵀX: X must have rT rows";
  AMALUR_CHECK(out->rows() == cols() && out->cols() == x.cols())
      << "TᵀX: out must be cT x n";
  ReserveScratch(x.cols(), scratch);
  if (x.cols() == 1) {
    TransposeLeftMultiplyKernel<1>(x, out, scratch->data());
  } else {
    TransposeLeftMultiplyKernel<0>(x, out, scratch->data());
  }
}

template <size_t kCols>
void FactorizedTable::TransposeLeftMultiplyKernel(const la::DenseMatrix& x,
                                                  la::DenseMatrix* out,
                                                  double* reduced) const {
  const size_t n = kCols != 0 ? kCols : x.cols();
  const double* xd = x.data();
  std::fill(out->data(), out->data() + out->size(), 0.0);
  for (size_t k = 0; k < metadata_.num_sources(); ++k) {
    const la::DenseMatrix& dk = metadata_.source(k).data;
    for (const RowClassPlan& plan : plans_[k]) {
      // Reduce X over fan-out first: one accumulated row per unique source
      // row (the Iᵀ step), then the D_kᵀ multiply-add pass. The reduce runs
      // parallel over unique rows via the reverse fan-out index (disjoint
      // `reduced` rows, same ascending accumulation order as the serial
      // walk); the multiply-add runs parallel over target-column bands
      // (disjoint `out` rows, u ascending per element in both orders). A
      // class without fan-out has nothing to reduce: its unique row u is X's
      // row target_rows[u], read in place.
      const bool no_fanout = plan.NoFanout();
      if (!no_fanout) {
        common::ParallelFor(
            0, plan.unique_source_rows.size(), kUniqueGrain,
            [&](size_t u_begin, size_t u_end) {
              for (size_t u = u_begin; u < u_end; ++u) {
                for (size_t c = 0; c < n; ++c) {
                  double acc = 0.0;
                  for (size_t q = plan.fanout_offsets[u];
                       q < plan.fanout_offsets[u + 1]; ++q) {
                    acc += xd[plan.fanout_targets[q] * n + c];
                  }
                  reduced[u * n + c] = acc;
                }
              }
            });
      }
      common::ParallelFor(
          0, plan.dk_cols.size(), kColumnGrain,
          [&](size_t p_begin, size_t p_end) {
            for (size_t u = 0; u < plan.unique_source_rows.size(); ++u) {
              const double* d_row = dk.RowPtr(plan.unique_source_rows[u]);
              const double* acc = no_fanout ? xd + plan.target_rows[u] * n
                                            : reduced + u * n;
              for (size_t p = p_begin; p < p_end; ++p) {
                const double v = d_row[plan.dk_cols[p]];
                if (v == 0.0) continue;
                double* out_row = out->RowPtr(plan.t_cols[p]);
                for (size_t c = 0; c < n; ++c) out_row[c] += v * acc[c];
              }
            }
          });
    }
  }
}

la::DenseMatrix FactorizedTable::RightMultiply(const la::DenseMatrix& x) const {
  AMALUR_CHECK_EQ(x.cols(), rows()) << "RMM: X must have rT columns";
  const size_t m = x.rows();
  la::DenseMatrix out(m, cols());
  for (size_t k = 0; k < metadata_.num_sources(); ++k) {
    const la::DenseMatrix& dk = metadata_.source(k).data;
    for (const RowClassPlan& plan : plans_[k]) {
      // Aggregate X's fan-out columns per unique source row, then multiply.
      // Both passes touch only row i of `aggregated`/`out` for X row i, so
      // they fuse into one parallel loop over disjoint X-row chunks.
      la::DenseMatrix aggregated(m, plan.unique_source_rows.size());
      common::ParallelFor(0, m, 1, [&](size_t i_begin, size_t i_end) {
        for (size_t r = 0; r < plan.target_rows.size(); ++r) {
          const size_t t = plan.target_rows[r];
          const size_t u = plan.target_to_unique[r];
          for (size_t i = i_begin; i < i_end; ++i) {
            aggregated.At(i, u) += x.At(i, t);
          }
        }
        for (size_t u = 0; u < plan.unique_source_rows.size(); ++u) {
          const double* d_row = dk.RowPtr(plan.unique_source_rows[u]);
          for (size_t p = 0; p < plan.dk_cols.size(); ++p) {
            const double v = d_row[plan.dk_cols[p]];
            if (v == 0.0) continue;
            const size_t c = plan.t_cols[p];
            for (size_t i = i_begin; i < i_end; ++i) {
              out.At(i, c) += aggregated.At(i, u) * v;
            }
          }
        }
      });
    }
  }
  return out;
}

la::DenseMatrix FactorizedTable::RowSums() const {
  la::DenseMatrix out(rows(), 1);
  for (size_t k = 0; k < metadata_.num_sources(); ++k) {
    const la::DenseMatrix& dk = metadata_.source(k).data;
    for (const RowClassPlan& plan : plans_[k]) {
      std::vector<double> sums(plan.unique_source_rows.size(), 0.0);
      common::ParallelFor(
          0, plan.unique_source_rows.size(), kUniqueGrain,
          [&](size_t u_begin, size_t u_end) {
            for (size_t u = u_begin; u < u_end; ++u) {
              const double* d_row = dk.RowPtr(plan.unique_source_rows[u]);
              for (size_t j : plan.dk_cols) sums[u] += d_row[j];
            }
          });
      common::ParallelFor(
          0, plan.target_rows.size(), kExpandGrain,
          [&](size_t r_begin, size_t r_end) {
            for (size_t r = r_begin; r < r_end; ++r) {
              out.At(plan.target_rows[r], 0) += sums[plan.target_to_unique[r]];
            }
          });
    }
  }
  return out;
}

la::DenseMatrix FactorizedTable::ColSums() const {
  la::DenseMatrix out(1, cols());
  for (size_t k = 0; k < metadata_.num_sources(); ++k) {
    const la::DenseMatrix& dk = metadata_.source(k).data;
    for (const RowClassPlan& plan : plans_[k]) {
      // Fan-out multiplies each unique source row's contribution; the
      // multiplicity comes straight off the reverse fan-out index. Parallel
      // over target-column bands (disjoint `out` cells within a plan).
      common::ParallelFor(
          0, plan.dk_cols.size(), kColumnGrain,
          [&](size_t p_begin, size_t p_end) {
            for (size_t u = 0; u < plan.unique_source_rows.size(); ++u) {
              const double* d_row = dk.RowPtr(plan.unique_source_rows[u]);
              const double count = static_cast<double>(
                  plan.fanout_offsets[u + 1] - plan.fanout_offsets[u]);
              for (size_t p = p_begin; p < p_end; ++p) {
                out.At(0, plan.t_cols[p]) += count * d_row[plan.dk_cols[p]];
              }
            }
          });
    }
  }
  return out;
}

la::DenseMatrix FactorizedTable::RowSquaredNorms() const {
  la::DenseMatrix out(rows(), 1);
  for (size_t k = 0; k < metadata_.num_sources(); ++k) {
    const la::DenseMatrix& dk = metadata_.source(k).data;
    for (const RowClassPlan& plan : plans_[k]) {
      std::vector<double> sums(plan.unique_source_rows.size(), 0.0);
      common::ParallelFor(
          0, plan.unique_source_rows.size(), kUniqueGrain,
          [&](size_t u_begin, size_t u_end) {
            for (size_t u = u_begin; u < u_end; ++u) {
              const double* d_row = dk.RowPtr(plan.unique_source_rows[u]);
              for (size_t j : plan.dk_cols) sums[u] += d_row[j] * d_row[j];
            }
          });
      common::ParallelFor(
          0, plan.target_rows.size(), kExpandGrain,
          [&](size_t r_begin, size_t r_end) {
            for (size_t r = r_begin; r < r_end; ++r) {
              out.At(plan.target_rows[r], 0) += sums[plan.target_to_unique[r]];
            }
          });
    }
  }
  return out;
}

PartialScores FactorizedTable::ExtractPartialScores(
    const la::DenseMatrix& target_weights) const {
  AMALUR_CHECK(target_weights.rows() == cols() && target_weights.cols() == 1)
      << "partial scores: weights must be cT x 1";
  PartialScores out;
  out.metadata_ = &metadata_;
  out.by_set_.resize(metadata_.num_sources());
  for (size_t k = 0; k < metadata_.num_sources(); ++k) {
    const metadata::SourceMetadata& source = metadata_.source(k);
    const la::DenseMatrix& dk = source.data;

    // Mapped (D_k column, target column) pairs in D_k order — the same
    // construction (and therefore the same accumulation order) as
    // BuildPlans, which is what makes ScoreRow bitwise-equal to the LMM.
    std::vector<size_t> all_dk_cols;
    std::vector<size_t> all_t_cols;
    for (size_t c = 0; c < source.mapping.target_cols(); ++c) {
      const int64_t j = source.mapping.At(c);
      if (j >= 0) {
        all_dk_cols.push_back(static_cast<size_t>(j));
        all_t_cols.push_back(c);
      }
    }

    // One partial vector per masked-column set (index 0 = the all-ones
    // "nothing redundant" rows), covering every D_k row. The interned set
    // family is small, so an unreferenced (set, row) combination costs
    // little and keeps lookups branch-free.
    const std::vector<std::vector<size_t>>& sets =
        source.redundancy.column_sets();
    out.by_set_[k].resize(sets.size() + 1);
    for (size_t si = 0; si <= sets.size(); ++si) {
      std::vector<size_t> dk_cols;
      std::vector<size_t> t_cols;
      if (si == 0) {
        dk_cols = all_dk_cols;
        t_cols = all_t_cols;
      } else {
        const std::vector<size_t>& masked = sets[si - 1];
        for (size_t p = 0; p < all_dk_cols.size(); ++p) {
          if (!std::binary_search(masked.begin(), masked.end(),
                                  all_t_cols[p])) {
            dk_cols.push_back(all_dk_cols[p]);
            t_cols.push_back(all_t_cols[p]);
          }
        }
      }
      std::vector<double>& partial = out.by_set_[k][si];
      partial.assign(dk.rows(), 0.0);
      out.cached_values_ += dk.rows();
      common::ParallelFor(
          0, dk.rows(), kUniqueGrain, [&](size_t r_begin, size_t r_end) {
            for (size_t r = r_begin; r < r_end; ++r) {
              partial[r] = PairDot(dk.RowPtr(r), dk_cols, t_cols,
                                   target_weights.data(), 1, 0);
            }
          });
    }
  }
  return out;
}

MorpheusReference::MorpheusReference(metadata::DiMetadata metadata)
    : table_(std::move(metadata)) {
  table_.BuildPlans(/*ignore_redundancy=*/true);
}

}  // namespace factorized
}  // namespace amalur
