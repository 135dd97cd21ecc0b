#include "gnn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace gnnerator::gnn {

Tensor::Tensor(std::size_t rows, std::size_t cols, std::unique_ptr<float[]> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {}

Tensor::Tensor(std::size_t rows, std::size_t cols)
    : Tensor(rows, cols, std::make_unique<float[]>(rows * cols)) {}

Tensor::Tensor(std::size_t rows, std::size_t cols, const std::vector<float>& values)
    : rows_(rows), cols_(cols) {
  GNNERATOR_CHECK_MSG(values.size() == size(),
                      "tensor init with " << values.size() << " values for shape " << rows_ << "x"
                                          << cols_);
  data_ = std::make_unique_for_overwrite<float[]>(size());
  std::copy(values.begin(), values.end(), data_.get());
}

Tensor Tensor::for_overwrite(std::size_t rows, std::size_t cols) {
  return {rows, cols, std::make_unique_for_overwrite<float[]>(rows * cols)};
}

Tensor::Tensor(const Tensor& other)
    : Tensor(other.rows_, other.cols_, std::make_unique_for_overwrite<float[]>(other.size())) {
  std::copy_n(other.data(), size(), data_.get());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) {
    *this = Tensor(other);
  }
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : rows_(std::exchange(other.rows_, 0)),
      cols_(std::exchange(other.cols_, 0)),
      data_(std::move(other.data_)) {}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  rows_ = std::exchange(other.rows_, 0);
  cols_ = std::exchange(other.cols_, 0);
  data_ = std::move(other.data_);
  return *this;
}

bool operator==(const Tensor& a, const Tensor& b) {
  return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
         std::equal(a.data(), a.data() + a.size(), b.data());
}

float& Tensor::at(std::size_t r, std::size_t c) {
  GNNERATOR_CHECK_MSG(r < rows_ && c < cols_,
                      "index (" << r << "," << c << ") out of " << rows_ << "x" << cols_);
  return data_[r * cols_ + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  GNNERATOR_CHECK_MSG(r < rows_ && c < cols_,
                      "index (" << r << "," << c << ") out of " << rows_ << "x" << cols_);
  return data_[r * cols_ + c];
}

std::span<float> Tensor::row(std::size_t r) {
  GNNERATOR_CHECK(r < rows_);
  return {data_.get() + r * cols_, cols_};
}

std::span<const float> Tensor::row(std::size_t r) const {
  GNNERATOR_CHECK(r < rows_);
  return {data_.get() + r * cols_, cols_};
}

void Tensor::fill(float value) { std::fill_n(data_.get(), size(), value); }

Tensor Tensor::concat_cols(const Tensor& a, const Tensor& b) {
  GNNERATOR_CHECK_MSG(a.rows() == b.rows(),
                      "concat rows mismatch " << a.rows() << " vs " << b.rows());
  Tensor out(a.rows(), a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    auto dst = out.row(r);
    const auto ra = a.row(r);
    const auto rb = b.row(r);
    std::copy(ra.begin(), ra.end(), dst.begin());
    std::copy(rb.begin(), rb.end(), dst.begin() + static_cast<std::ptrdiff_t>(a.cols()));
  }
  return out;
}

float Tensor::max_abs_diff(const Tensor& a, const Tensor& b) {
  GNNERATOR_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a.data_[i] - b.data_[i]));
  }
  return worst;
}

}  // namespace gnnerator::gnn
