#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace gnnerator::gnn {

/// Dense row-major fp32 matrix. The only tensor shape GNN inference needs is
/// 2-D: [nodes x feature dims] for activations and [in dims x out dims] for
/// weights. Deliberately minimal — no views, no broadcasting — so the
/// functional simulator and reference executor stay easy to audit.
class Tensor {
 public:
  Tensor() = default;
  /// A rows x cols tensor of zeros.
  Tensor(std::size_t rows, std::size_t cols);
  Tensor(std::size_t rows, std::size_t cols, const std::vector<float>& values);
  /// A rows x cols tensor whose elements are left unset, for a producer that
  /// writes every element before anything reads it: no fill pass touches
  /// the memory first.
  [[nodiscard]] static Tensor for_overwrite(std::size_t rows, std::size_t cols);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return rows_ * cols_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] float& at(std::size_t r, std::size_t c);
  [[nodiscard]] float at(std::size_t r, std::size_t c) const;

  [[nodiscard]] std::span<float> row(std::size_t r);
  [[nodiscard]] std::span<const float> row(std::size_t r) const;

  [[nodiscard]] float* data() { return data_.get(); }
  [[nodiscard]] const float* data() const { return data_.get(); }

  void fill(float value);

  /// Horizontal concatenation [a | b]; row counts must match.
  static Tensor concat_cols(const Tensor& a, const Tensor& b);

  /// Largest absolute elementwise difference; shapes must match.
  static float max_abs_diff(const Tensor& a, const Tensor& b);

  /// Equal shapes and elementwise-equal values.
  friend bool operator==(const Tensor& a, const Tensor& b);

 private:
  Tensor(std::size_t rows, std::size_t cols, std::unique_ptr<float[]> data);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::unique_ptr<float[]> data_;
};

}  // namespace gnnerator::gnn
