#include "factorized/factorized_table.h"

#include <algorithm>

#include "common/parallel_for.h"

namespace amalur {
namespace factorized {

namespace {
// ParallelFor grains for the rewrite kernels. Within a kernel every parallel
// loop partitions disjoint output and keeps each element's accumulation
// order, so results are bitwise-equal to the serial kernels at any thread
// count.
constexpr size_t kUniqueGrain = 32;  // slot loops
constexpr size_t kExpandGrain = 512; // target-row loops
constexpr size_t kColumnGrain = 8;   // target-column band loops
/// Source rows per pass of the transpose products: 256 rows of a wide
/// D_k stay in a core's cache while every column of a band reads them.
constexpr size_t kRowTile = 256;

/// Σ_p d_row[dk_cols[p]] · X[t_cols[p], c] over a class's allowed column
/// pairs, p ascending from +0.0, skipping exact-zero cells; X is row-major
/// with n columns.
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
    : FactorizedTable(std::move(metadata), /*ignore_redundancy=*/false) {}

FactorizedTable::FactorizedTable(metadata::DiMetadata metadata,
                                 bool ignore_redundancy)
    : metadata_(std::move(metadata)) {
  if (ignore_redundancy) {
    own_index_ = std::make_shared<const metadata::RowSlotIndex>(
        metadata::BuildRowSlotIndex(metadata_, /*ignore_redundancy=*/true));
    index_ = own_index_.get();
  } else {
    index_ = &metadata_.slot_index();
  }
  const std::vector<metadata::SourceSlots>& sources = index_->sources;
  first_source_in_place_ = !sources.empty() &&
                           sources[0].classes.size() == 1 &&
                           sources[0].num_slots == sources[0].covered_rows;
}

template <size_t kCols>
void FactorizedTable::SlotProducts(size_t k, const double* x, size_t n,
                                   double* products) const {
  if (kCols != 0) n = kCols;
  const la::DenseMatrix& dk = metadata_.source(k).data;
  for (const metadata::SlotClass& cls : plans()[k].classes) {
    // Parallel over slots — each chunk writes disjoint product rows.
    common::ParallelFor(
        0, cls.unique_source_rows.size(), kUniqueGrain,
        [&](size_t u_begin, size_t u_end) {
          for (size_t u = u_begin; u < u_end; ++u) {
            const double* d_row = dk.RowPtr(cls.unique_source_rows[u]);
            double* product = products + (cls.first_slot + u) * n;
            for (size_t c = 0; c < n; ++c) {
              product[c] = PairDot(d_row, cls.dk_cols, cls.t_cols, x, n, c);
            }
          }
        });
  }
}

template <size_t kCols>
void FactorizedTable::AddTransposeProducts(size_t k, const double* sums,
                                           size_t n,
                                           la::DenseMatrix* out) const {
  if (kCols != 0) n = kCols;
  const double* d = metadata_.source(k).data.data();
  const size_t stride = metadata_.source(k).data.cols();
  double* out_data = out->data();
  for (const metadata::SlotClass& cls : plans()[k].classes) {
    const metadata::RowId* unique = cls.unique_source_rows.data();
    const size_t num_unique = cls.unique_source_rows.size();
    const double* class_sums = sums + cls.first_slot * n;
    // Parallel over target-column bands: disjoint `out` rows, u ascending
    // per element in every band. Each element's running sum stays in a
    // register over a tile of rows that stays in cache while the band's
    // columns pass over it.
    common::ParallelFor(
        0, cls.dk_cols.size(), kColumnGrain,
        [&](size_t p_begin, size_t p_end) {
          for (size_t u_begin = 0; u_begin < num_unique;
               u_begin += kRowTile) {
            const size_t u_end = std::min(num_unique, u_begin + kRowTile);
            for (size_t p = p_begin; p < p_end; ++p) {
              const size_t col = cls.dk_cols[p];
              double* out_row = out_data + cls.t_cols[p] * n;
              for (size_t c = 0; c < n; ++c) {
                double acc = out_row[c];
                for (size_t u = u_begin; u < u_end; ++u) {
                  const double v = d[unique[u] * stride + col];
                  if (v != 0.0) acc += v * class_sums[u * n + c];
                }
                out_row[c] = acc;
              }
            }
          }
        });
  }
}

la::DenseMatrix FactorizedTable::LeftMultiply(const la::DenseMatrix& x) const {
  AMALUR_CHECK_EQ(x.rows(), cols()) << "LMM: X must have cT rows";
  la::DenseMatrix out(rows(), x.cols());
  std::vector<double> products(index_->total_slots * x.cols());
  if (x.cols() == 1) {
    LeftMultiplyKernel<1>(x, &out, products.data());
  } else {
    LeftMultiplyKernel<0>(x, &out, products.data());
  }
  return out;
}

template <size_t kCols>
void FactorizedTable::LeftMultiplyKernel(const la::DenseMatrix& x,
                                         la::DenseMatrix* out,
                                         double* products) const {
  const size_t n = kCols != 0 ? kCols : x.cols();
  const size_t num_sources = plans().size();
  for (size_t k = 0; k < num_sources; ++k) {
    SlotProducts<kCols>(k, x.data(), n, products + plans()[k].first_slot * n);
  }
  // Expand through the slot index: each row adds its slots' products,
  // sources ascending. Parallel over row chunks — disjoint `out` rows.
  common::ParallelFor(
      0, rows(), kExpandGrain, [&](size_t r_begin, size_t r_end) {
        for (size_t i = r_begin; i < r_end; ++i) {
          const metadata::RowId* row_slots =
              index_->slots.data() + i * num_sources;
          double* out_row = out->RowPtr(i);
          for (size_t k = 0; k < num_sources; ++k) {
            if (row_slots[k] == kNoSlot) continue;
            const double* product = products + row_slots[k] * n;
            for (size_t c = 0; c < n; ++c) out_row[c] += product[c];
          }
        }
      });
}

la::DenseMatrix FactorizedTable::TransposeLeftMultiply(
    const la::DenseMatrix& x) const {
  AMALUR_CHECK_EQ(x.rows(), rows()) << "TᵀX: X must have rT rows";
  la::DenseMatrix out(cols(), x.cols());
  std::vector<double> sums(index_->total_slots * x.cols(), 0.0);
  if (x.cols() == 1) {
    TransposeLeftMultiplyKernel<1>(x, &out, sums.data());
  } else {
    TransposeLeftMultiplyKernel<0>(x, &out, sums.data());
  }
  return out;
}

template <size_t kCols>
void FactorizedTable::TransposeLeftMultiplyKernel(const la::DenseMatrix& x,
                                                  la::DenseMatrix* out,
                                                  double* sums) const {
  const size_t n = kCols != 0 ? kCols : x.cols();
  const size_t num_sources = plans().size();
  // Reduce X over fan-out first (the Iᵀ step): every slot's sum adds its
  // rows ascending from +0.0. Serial, so the order holds at any thread
  // count.
  for (size_t i = 0; i < rows(); ++i) {
    const metadata::RowId* row_slots = index_->slots.data() + i * num_sources;
    const double* x_row = x.RowPtr(i);
    for (size_t k = 0; k < num_sources; ++k) {
      if (row_slots[k] == kNoSlot) continue;
      double* sum = sums + row_slots[k] * n;
      for (size_t c = 0; c < n; ++c) sum[c] += x_row[c];
    }
  }
  for (size_t k = 0; k < num_sources; ++k) {
    AddTransposeProducts<kCols>(k, sums + plans()[k].first_slot * n, n, out);
  }
}

FactorizedTable::StepWalk FactorizedTable::BeginStep(
    const la::DenseMatrix& w, la::DenseMatrix* out,
    StepScratch* scratch) const {
  AMALUR_CHECK(w.rows() == cols() && w.cols() == 1) << "step: w is cT x 1";
  AMALUR_CHECK(out->rows() == cols() && out->cols() == 1)
      << "step: out must be cT x 1";
  StepWalk walk;
  StepScratch& s = *scratch;
  const size_t first_walked = first_source_in_place_ ? 1 : 0;
  walk.first_slot = first_source_in_place_ ? plans()[0].num_slots : 0;
  s.partials.resize(index_->total_slots - walk.first_slot);
  s.sums.assign(index_->total_slots - walk.first_slot, 0.0);
  for (size_t k = first_walked; k < plans().size(); ++k) {
    SlotProducts<1>(
        k, w.data(), 1,
        s.partials.data() + plans()[k].first_slot - walk.first_slot);
  }
  walk.slots = index_->slots.data() + first_walked;
  walk.slot_stride = plans().size();
  walk.num_walked = plans().size() - first_walked;
  walk.partials = s.partials.data();
  walk.sums = s.sums.data();
  std::fill(out->data(), out->data() + out->size(), 0.0);

  if (first_source_in_place_) {
    const metadata::SlotClass& cls = plans()[0].classes[0];
    s.weights.resize(cls.t_cols.size());
    s.gradient.assign(cls.t_cols.size(), 0.0);
    for (size_t p = 0; p < cls.t_cols.size(); ++p) {
      s.weights[p] = w.data()[cls.t_cols[p]];
    }
    const la::DenseMatrix& d0 = metadata_.source(0).data;
    s.zero_row.assign(d0.cols(), 0.0);
    walk.rows = metadata_.source(0).indicator.values().data();
    walk.data = d0.data();
    walk.stride = d0.cols();
    walk.zero_row = s.zero_row.data();
    walk.dk_cols = cls.dk_cols.data();
    walk.pairs = cls.dk_cols.size();
    walk.weights = s.weights.data();
    walk.gradient = s.gradient.data();
  }
  return walk;
}

void FactorizedTable::FinishStep(const StepWalk& walk,
                                 la::DenseMatrix* out) const {
  // `out` is +0.0 everywhere, so source 0's accumulators are its sums.
  const size_t first_walked = first_source_in_place_ ? 1 : 0;
  if (first_source_in_place_) {
    const metadata::SlotClass& cls = plans()[0].classes[0];
    for (size_t p = 0; p < cls.t_cols.size(); ++p) {
      out->data()[cls.t_cols[p]] = walk.gradient[p];
    }
  }
  for (size_t k = first_walked; k < plans().size(); ++k) {
    AddTransposeProducts<1>(
        k, walk.sums + plans()[k].first_slot - walk.first_slot, 1, out);
  }
}

la::DenseMatrix FactorizedTable::TargetColumn(size_t j) const {
  AMALUR_CHECK_LT(j, cols()) << "target column";
  // Per slot whose class keeps column j: its D_k cell.
  std::vector<const double*> cells(index_->total_slots, nullptr);
  for (size_t k = 0; k < plans().size(); ++k) {
    const la::DenseMatrix& dk = metadata_.source(k).data;
    for (const metadata::SlotClass& cls : plans()[k].classes) {
      const auto pair = std::find(cls.t_cols.begin(), cls.t_cols.end(), j);
      if (pair == cls.t_cols.end()) continue;
      const size_t col = cls.dk_cols[pair - cls.t_cols.begin()];
      const size_t first = plans()[k].first_slot + cls.first_slot;
      for (size_t u = 0; u < cls.unique_source_rows.size(); ++u) {
        cells[first + u] = dk.RowPtr(cls.unique_source_rows[u]) + col;
      }
    }
  }
  la::DenseMatrix out(rows(), 1);
  const size_t num_sources = plans().size();
  for (size_t i = 0; i < rows(); ++i) {
    const metadata::RowId* row_slots = index_->slots.data() + i * num_sources;
    for (size_t k = 0; k < num_sources; ++k) {
      if (row_slots[k] != kNoSlot && cells[row_slots[k]] != nullptr) {
        out.At(i, 0) = *cells[row_slots[k]];
        break;
      }
    }
  }
  return out;
}

la::DenseMatrix FactorizedTable::ColSums() const {
  la::DenseMatrix out(1, cols());
  // Fan-out multiplies each slot's contribution by its target rows.
  std::vector<double> counts(index_->total_slots, 0.0);
  for (metadata::RowId slot : index_->slots) {
    if (slot != kNoSlot) counts[slot] += 1.0;
  }
  for (size_t k = 0; k < plans().size(); ++k) {
    const la::DenseMatrix& dk = metadata_.source(k).data;
    const double* source_counts = counts.data() + plans()[k].first_slot;
    for (const metadata::SlotClass& cls : plans()[k].classes) {
      // Parallel over target-column bands (disjoint `out` cells).
      common::ParallelFor(
          0, cls.dk_cols.size(), kColumnGrain,
          [&](size_t p_begin, size_t p_end) {
            for (size_t u = 0; u < cls.unique_source_rows.size(); ++u) {
              const double* d_row = dk.RowPtr(cls.unique_source_rows[u]);
              const double count = source_counts[cls.first_slot + u];
              for (size_t p = p_begin; p < p_end; ++p) {
                out.At(0, cls.t_cols[p]) += count * d_row[cls.dk_cols[p]];
              }
            }
          });
    }
  }
  return out;
}

la::DenseMatrix FactorizedTable::RowSquaredNorms() const {
  std::vector<double> norms(index_->total_slots, 0.0);
  for (size_t k = 0; k < plans().size(); ++k) {
    const la::DenseMatrix& dk = metadata_.source(k).data;
    double* source_norms = norms.data() + plans()[k].first_slot;
    for (const metadata::SlotClass& cls : plans()[k].classes) {
      common::ParallelFor(
          0, cls.unique_source_rows.size(), kUniqueGrain,
          [&](size_t u_begin, size_t u_end) {
            for (size_t u = u_begin; u < u_end; ++u) {
              const double* d_row = dk.RowPtr(cls.unique_source_rows[u]);
              double& norm = source_norms[cls.first_slot + u];
              for (size_t j : cls.dk_cols) norm += d_row[j] * d_row[j];
            }
          });
    }
  }
  // Each row adds its slots' norms, sources ascending.
  la::DenseMatrix out(rows(), 1);
  const size_t num_sources = plans().size();
  common::ParallelFor(
      0, rows(), kExpandGrain, [&](size_t r_begin, size_t r_end) {
        for (size_t i = r_begin; i < r_end; ++i) {
          const metadata::RowId* row_slots =
              index_->slots.data() + i * num_sources;
          for (size_t k = 0; k < num_sources; ++k) {
            if (row_slots[k] != kNoSlot) out.At(i, 0) += norms[row_slots[k]];
          }
        }
      });
  return out;
}

PartialScores FactorizedTable::ExtractPartialScores(
    const la::DenseMatrix& target_weights) const {
  AMALUR_CHECK(target_weights.rows() == cols() && target_weights.cols() == 1)
      << "partial scores: weights must be cT x 1";
  PartialScores out;
  out.rows_ = rows();
  out.num_sources_ = plans().size();
  out.slots_ = index_->slots.data();
  out.partials_.resize(index_->total_slots);
  for (size_t k = 0; k < plans().size(); ++k) {
    SlotProducts<1>(k, target_weights.data(), 1,
                    out.partials_.data() + plans()[k].first_slot);
  }
  return out;
}

MorpheusReference::MorpheusReference(metadata::DiMetadata metadata)
    : table_(std::move(metadata), /*ignore_redundancy=*/true) {}

}  // namespace factorized
}  // namespace amalur
