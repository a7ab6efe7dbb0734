#pragma once
// Round-scoped zero-copy storage for client uploads.
//
// One federated round produces an [count, psi_dim] matrix of flat parameter
// vectors (plus, for FedGuard, a [count, theta_dim] matrix of decoder
// vectors). `UpdateMatrix` owns both planes as contiguous row-major arenas
// with per-row metadata; producers (fl::Client, the shard frame
// decoder) write their assigned row in place, and consumers (every
// AggregationStrategy) read the rows through non-owning views:
//
//   UpdateMatrix  — the arena; reset() per round, capacity persists.
//   UpdateRow     — mutable handle to one row, handed to the producer.
//   UpdateView    — read-only row selection handed to a strategy; identity
//                   over the whole arena or an index sub-selection.
//   PointsView    — bare [n, d] point-set over psi rows, the shape the robust
//                   operators (krum_scores, geometric_median, ...) consume.
//
// Selections are index indirections, never data copies: Bulyan's elimination
// loop and FedGuard's kept-set operators filter indices instead of
// re-concatenating sub-matrices.

#include <cstddef>
#include <span>
#include <vector>

namespace fedguard::defenses {

/// Per-row metadata: who uploaded the row and what the strategy needs to
/// know about it besides ψ and θ.
struct UpdateMeta {
  int client_id = -1;
  std::size_t num_samples = 0;
  bool truly_malicious = false;  // ground truth, for detection metrics only
  /// Actual decoder vector length written into the row's theta plane. An
  /// in-process client with a misconfigured CVAE records a length that
  /// differs from UpdateMatrix::theta_dim(), and the strategy rejects it
  /// against decoder_parameter_count(); a socket reply of the wrong θ length
  /// never gets here (decode_round_reply_into refuses it as BadShape).
  std::size_t theta_count = 0;
};

/// Mutable handle to one arena row, handed to whoever fills it. `theta` spans
/// the full capacity plane; the producer records the filled prefix length in
/// `meta->theta_count`.
struct UpdateRow {
  std::span<float> psi;
  std::span<float> theta;
  UpdateMeta* meta = nullptr;
};

class UpdateMatrix {
 public:
  /// Resize for a new round. Backing buffers only grow, so steady-state
  /// rounds (same count/dims) perform no heap allocation. Metadata is reset
  /// to defaults; the float planes are left uninitialised for producers.
  void reset(std::size_t count, std::size_t psi_dim, std::size_t theta_dim = 0);

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t psi_dim() const noexcept { return psi_dim_; }
  [[nodiscard]] std::size_t theta_dim() const noexcept { return theta_dim_; }

  [[nodiscard]] std::span<float> psi(std::size_t row) noexcept {
    return {psi_storage_.data() + row * psi_dim_, psi_dim_};
  }
  [[nodiscard]] std::span<const float> psi(std::size_t row) const noexcept {
    return {psi_storage_.data() + row * psi_dim_, psi_dim_};
  }
  /// Filled prefix of the row's theta plane (meta.theta_count floats, clamped
  /// to capacity — a mismatching count is reported via meta, not read).
  [[nodiscard]] std::span<const float> theta(std::size_t row) const noexcept;
  [[nodiscard]] UpdateMeta& meta(std::size_t row) noexcept { return meta_[row]; }
  [[nodiscard]] const UpdateMeta& meta(std::size_t row) const noexcept { return meta_[row]; }

  [[nodiscard]] UpdateRow row(std::size_t r) noexcept;

  /// The whole psi arena, row-major [count * psi_dim].
  [[nodiscard]] std::span<const float> psi_data() const noexcept {
    return {psi_storage_.data(), count_ * psi_dim_};
  }

  /// Bytes reserved by the backing planes. Grow-only, so in steady state
  /// (same count/dims per round) this must plateau — the servers snapshot it
  /// into the obs_arena_capacity_bytes gauge, which the soak harness watches
  /// as a leak invariant.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return psi_storage_.capacity() * sizeof(float) +
           theta_storage_.capacity() * sizeof(float) +
           meta_.capacity() * sizeof(UpdateMeta);
  }

 private:
  std::size_t count_ = 0;
  std::size_t psi_dim_ = 0;
  std::size_t theta_dim_ = 0;
  std::vector<float> psi_storage_;
  std::vector<float> theta_storage_;
  std::vector<UpdateMeta> meta_;
};

/// Read-only [count, dim] point-set: a contiguous buffer or an arbitrary row
/// selection over one (index indirection, no data copies).
class PointsView {
 public:
  /// Contiguous points: `flat` holds count*dim floats, row k at [k*dim, dim).
  PointsView(std::span<const float> flat, std::size_t count, std::size_t dim) noexcept
      : base_{flat}, count_{count}, dim_{dim} {}
  /// Row selection: logical row k is base row rows[k]. `rows` must outlive
  /// the view.
  PointsView(std::span<const float> base, std::size_t dim,
             std::span<const std::size_t> rows) noexcept
      : base_{base}, count_{rows.size()}, dim_{dim}, rows_{rows}, selected_{true} {}

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::span<const float> row(std::size_t k) const noexcept {
    return base_.subspan((selected_ ? rows_[k] : k) * dim_, dim_);
  }

 private:
  std::span<const float> base_;
  std::size_t count_ = 0;
  std::size_t dim_ = 0;
  std::span<const std::size_t> rows_;
  bool selected_ = false;
};

/// Non-owning selection of arena rows handed to an AggregationStrategy. The
/// identity view covers every arena row in order; sub-selections reference a
/// caller-owned index buffer that must outlive the view.
class UpdateView {
 public:
  explicit UpdateView(const UpdateMatrix& matrix) noexcept : matrix_{&matrix} {}
  UpdateView(const UpdateMatrix& matrix, std::span<const std::size_t> rows) noexcept
      : matrix_{&matrix}, rows_{rows}, selected_{true} {}

  [[nodiscard]] const UpdateMatrix& matrix() const noexcept { return *matrix_; }
  [[nodiscard]] std::size_t count() const noexcept {
    return selected_ ? rows_.size() : matrix_->count();
  }
  [[nodiscard]] std::size_t psi_dim() const noexcept { return matrix_->psi_dim(); }
  /// Arena row backing selection slot k.
  [[nodiscard]] std::size_t row_index(std::size_t k) const noexcept {
    return selected_ ? rows_[k] : k;
  }
  [[nodiscard]] std::span<const float> psi(std::size_t k) const noexcept {
    return matrix_->psi(row_index(k));
  }
  [[nodiscard]] std::span<const float> theta(std::size_t k) const noexcept {
    return matrix_->theta(row_index(k));
  }
  [[nodiscard]] const UpdateMeta& meta(std::size_t k) const noexcept {
    return matrix_->meta(row_index(k));
  }

  /// The psi rows as a point-set (contiguous for the identity view).
  [[nodiscard]] PointsView points() const noexcept;
  /// Compose a sub-selection: `slots` index THIS view. `storage` receives the
  /// composed arena-row indices backing the returned view and must stay alive
  /// (and unmodified) while the view is in use.
  [[nodiscard]] UpdateView select(std::span<const std::size_t> slots,
                                  std::vector<std::size_t>& storage) const;

 private:
  const UpdateMatrix* matrix_;
  std::span<const std::size_t> rows_;
  bool selected_ = false;
};

}  // namespace fedguard::defenses
