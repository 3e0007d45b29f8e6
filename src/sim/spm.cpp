#include "sim/spm.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace swatop::sim {

Spm::Spm(const SimConfig& cfg) : data_(cfg.spm_floats(), 0.0f) {
  // Everything starts poisoned: SPM contents are uninitialized until a DMA,
  // zero-fill or store defines them, so even reads outside any allocated
  // buffer (a corrupted offset) are caught.
  if (cfg.sanitize.poison_on()) poison_.assign(data_.size(), 1);
}

void Spm::poison(std::int64_t a, std::int64_t n) {
  if (poison_.empty()) return;
  check_range(a, n);
  std::fill(poison_.begin() + a, poison_.begin() + a + n, std::uint8_t{1});
}

void Spm::unpoison(std::int64_t a, std::int64_t n) {
  if (poison_.empty()) return;
  check_range(a, n);
  std::fill(poison_.begin() + a, poison_.begin() + a + n, std::uint8_t{0});
}

std::int64_t Spm::first_poisoned(std::int64_t a, std::int64_t n) const {
  if (poison_.empty()) return -1;
  check_range(a, n);
  for (std::int64_t i = a; i < a + n; ++i)
    if (poison_[static_cast<std::size_t>(i)]) return i;
  return -1;
}

void Spm::check_range(std::int64_t a, std::int64_t n) const {
  SWATOP_CHECK(a >= 0 && n >= 0 &&
               a + n <= static_cast<std::int64_t>(data_.size()))
      << "SPM access [" << a << ", " << a + n << ") exceeds capacity "
      << data_.size() << " floats";
}

float Spm::read(std::int64_t a) const {
  check_range(a, 1);
  ++reads_;
  return data_[static_cast<std::size_t>(a)];
}

void Spm::write(std::int64_t a, float v) {
  check_range(a, 1);
  ++writes_;
  if (!poison_.empty()) poison_[static_cast<std::size_t>(a)] = 0;
  data_[static_cast<std::size_t>(a)] = v;
}

std::span<const float> Spm::read_block(std::int64_t a, std::int64_t n) const {
  check_range(a, n);
  reads_ += n;
  return {data_.data() + a, static_cast<std::size_t>(n)};
}

std::span<float> Spm::write_block(std::int64_t a, std::int64_t n) {
  check_range(a, n);
  writes_ += n;
  unpoison(a, n);
  return {data_.data() + a, static_cast<std::size_t>(n)};
}

std::span<float> Spm::view(std::int64_t a, std::int64_t n) {
  check_range(a, n);
  return {data_.data() + a, static_cast<std::size_t>(n)};
}

std::span<const float> Spm::view(std::int64_t a, std::int64_t n) const {
  check_range(a, n);
  return {data_.data() + a, static_cast<std::size_t>(n)};
}

void Spm::fill(std::int64_t a, std::int64_t n, float v) {
  auto s = write_block(a, n);
  std::fill(s.begin(), s.end(), v);
}

void Spm::clear() {
  std::fill(data_.begin(), data_.end(), 0.0f);
  // A cleared SPM models a fresh core: contents are again uninitialized.
  if (!poison_.empty()) std::fill(poison_.begin(), poison_.end(), 1);
}

}  // namespace swatop::sim
