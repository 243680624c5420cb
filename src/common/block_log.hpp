// Append-only storage in fixed blocks.
//
// `BlockLog<T, Bits>` keeps its elements in blocks of 2^Bits, each
// allocated when the first element lands in it. Appending never copies
// or moves a stored element, so references stay valid for the life of
// the log, and an empty log holds no element storage. Indexing is a
// shift and a mask; iterators are random access, so the standard
// algorithms (`std::sort`, `std::nth_element`) run over a log in place.
//
// Elements must be trivially copyable and destructible: a block is raw
// storage, copied bytewise and freed without destructor calls.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace dope::common {

template <typename T, std::size_t Bits>
class BlockLog {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "BlockLog blocks are copied bytewise and never destroyed "
                "element by element");

  struct FreeBlock {
    void operator()(T* block) const {
      std::allocator<T>().deallocate(block, std::size_t{1} << Bits);
    }
  };
  using Block = std::unique_ptr<T[], FreeBlock>;

 public:
  static constexpr std::size_t kBlockBits = Bits;
  static constexpr std::size_t kBlockSize = std::size_t{1} << Bits;

  /// Position `i` in a log. Invalidated by `push_back` (which may move
  /// the block table, never an element), like a vector iterator.
  template <bool Const>
  class Iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using reference = std::conditional_t<Const, const T&, T&>;

    Iterator() = default;
    Iterator(const Block* blocks, std::size_t i) : blocks_(blocks), i_(i) {}

    reference operator*() const {
      return blocks_[i_ >> Bits][i_ & (kBlockSize - 1)];
    }
    pointer operator->() const { return &**this; }
    reference operator[](difference_type n) const { return *(*this + n); }

    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++i_;
      return old;
    }
    Iterator& operator--() {
      --i_;
      return *this;
    }
    Iterator operator--(int) {
      Iterator old = *this;
      --i_;
      return old;
    }
    // Unsigned wrap-around makes a negative step come out right.
    Iterator& operator+=(difference_type n) {
      i_ += static_cast<std::size_t>(n);
      return *this;
    }
    Iterator& operator-=(difference_type n) {
      i_ -= static_cast<std::size_t>(n);
      return *this;
    }
    friend Iterator operator+(Iterator it, difference_type n) {
      return it += n;
    }
    friend Iterator operator+(difference_type n, Iterator it) {
      return it += n;
    }
    friend Iterator operator-(Iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const Iterator& a, const Iterator& b) {
      return static_cast<difference_type>(a.i_ - b.i_);
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.i_ == b.i_;
    }
    friend std::strong_ordering operator<=>(const Iterator& a,
                                            const Iterator& b) {
      return a.i_ <=> b.i_;
    }

   private:
    const Block* blocks_ = nullptr;
    std::size_t i_ = 0;
  };
  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  BlockLog() = default;
  BlockLog(const BlockLog& other) : size_(other.size_) {
    blocks_.reserve(other.blocks_.size());
    for (std::size_t b = 0; b < other.blocks_.size(); ++b) {
      blocks_.push_back(new_block());
      const std::size_t n = std::min(kBlockSize, size_ - b * kBlockSize);
      std::uninitialized_copy_n(other.blocks_[b].get(), n,
                                blocks_[b].get());
    }
  }
  BlockLog(BlockLog&& other) noexcept
      : blocks_(std::move(other.blocks_)),
        size_(std::exchange(other.size_, 0)) {}
  BlockLog& operator=(BlockLog other) noexcept {
    blocks_.swap(other.blocks_);
    std::swap(size_, other.size_);
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) {
    return blocks_[i >> Bits][i & (kBlockSize - 1)];
  }
  const T& operator[](std::size_t i) const {
    return blocks_[i >> Bits][i & (kBlockSize - 1)];
  }

  iterator begin() { return {blocks_.data(), 0}; }
  iterator end() { return {blocks_.data(), size_}; }
  const_iterator begin() const { return {blocks_.data(), 0}; }
  const_iterator end() const { return {blocks_.data(), size_}; }

  void push_back(const T& value) {
    if ((size_ & (kBlockSize - 1)) == 0) blocks_.push_back(new_block());
    std::construct_at(&blocks_.back()[size_ & (kBlockSize - 1)], value);
    ++size_;
  }

 private:
  static Block new_block() {
    return Block(std::allocator<T>().allocate(kBlockSize));
  }

  std::vector<Block> blocks_;
  std::size_t size_ = 0;
};

}  // namespace dope::common
