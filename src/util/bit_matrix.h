#ifndef CCSIM_UTIL_BIT_MATRIX_H_
#define CCSIM_UTIL_BIT_MATRIX_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccsim::util {

/// Dense bit matrix over small non-negative row and column ids (rows are
/// pages, columns clients): one row of 64-bit words per row id in a single
/// flat vector. Both dimensions grow on demand, by doubling; storage is
/// never returned, so set/reset churn never reaches the allocator. Rows
/// iterate in ascending column order.
class BitMatrix {
 public:
  /// Sets bit (row, col); false if it was already set.
  bool Set(std::size_t row, std::size_t col) {
    Reserve(row, col);
    std::uint64_t& word = words_[row * words_per_row_ + col / 64];
    const std::uint64_t bit = std::uint64_t{1} << (col % 64);
    if ((word & bit) != 0) {
      return false;
    }
    word |= bit;
    return true;
  }

  /// Clears bit (row, col); false if it was not set.
  bool Reset(std::size_t row, std::size_t col) {
    if (!Test(row, col)) {
      return false;
    }
    words_[row * words_per_row_ + col / 64] &=
        ~(std::uint64_t{1} << (col % 64));
    return true;
  }

  bool Test(std::size_t row, std::size_t col) const {
    if (row >= rows_ || col / 64 >= words_per_row_) {
      return false;
    }
    return (words_[row * words_per_row_ + col / 64] >> (col % 64) & 1) != 0;
  }

  bool RowEmpty(std::size_t row) const {
    if (row >= rows_) {
      return true;
    }
    const std::uint64_t* words = &words_[row * words_per_row_];
    return std::all_of(words, words + words_per_row_,
                       [](std::uint64_t w) { return w == 0; });
  }

  /// Calls fn(col) for every set bit of `row`, in ascending column order.
  template <typename Fn>
  void ForEachInRow(std::size_t row, Fn&& fn) const {
    if (row >= rows_) {
      return;
    }
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      std::uint64_t word = words_[row * words_per_row_ + w];
      while (word != 0) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

  /// Clears column `col` in every row.
  void ResetColumn(std::size_t col) {
    if (col / 64 >= words_per_row_) {
      return;
    }
    const std::uint64_t keep = ~(std::uint64_t{1} << (col % 64));
    for (std::size_t row = 0; row < rows_; ++row) {
      words_[row * words_per_row_ + col / 64] &= keep;
    }
  }

  /// Rows allocated so far (every set bit lies in a row below this).
  std::size_t rows() const { return rows_; }

  /// Clears every bit; the storage is kept.
  void Clear() { std::fill(words_.begin(), words_.end(), 0); }

 private:
  void Reserve(std::size_t row, std::size_t col) {
    const std::size_t want_words = col / 64 + 1;
    if (row < rows_ && want_words <= words_per_row_) {
      return;
    }
    const std::size_t rows = row < rows_ ? rows_ : std::max(row + 1, 2 * rows_);
    const std::size_t per_row =
        std::max(want_words, words_per_row_ == 0 ? 1 : words_per_row_);
    std::vector<std::uint64_t> grown(rows * per_row, 0);
    for (std::size_t r = 0; r < rows_; ++r) {
      std::copy_n(&words_[r * words_per_row_], words_per_row_,
                  &grown[r * per_row]);
    }
    words_.swap(grown);
    rows_ = rows;
    words_per_row_ = per_row;
  }

  std::vector<std::uint64_t> words_;
  std::size_t rows_ = 0;
  std::size_t words_per_row_ = 0;
};

}  // namespace ccsim::util

#endif  // CCSIM_UTIL_BIT_MATRIX_H_
