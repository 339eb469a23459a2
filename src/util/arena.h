// Bump-allocated scratch memory for tight per-item loops (DESIGN.md §6j).
//
// A BumpArena hands out raw storage by advancing an offset into a block and
// reclaims everything at once with Reset() — the allocation pattern of the
// miner's per-seed scratch, where thousands of short-lived vectors are built
// and abandoned seed after seed. Reset() is O(1) in the steady state: after
// the first seed has sized the arena, every later seed reuses one block and
// no allocation reaches the heap at all. When a seed outgrows the arena,
// overflow blocks chain on and the next Reset() coalesces them into a single
// block of the high-water size, so growth is paid once, not per seed.
//
// ArenaVec<T> is the companion container: a minimal push_back vector over
// arena storage for trivially copyable, trivially destructible element
// types (the only kinds scratch data should be). It never frees — grow
// abandons the old span inside the arena — which is exactly right for
// scratch that dies at the next Reset().
//
// CacheAligned<T> pads a value to its own cache line. The miner's atomic
// seed dispensers and per-worker accumulators are held in it so that
// adjacent hot state cannot false-share a line at 8+ workers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace govdns::util {

inline constexpr size_t kCacheLineBytes = 64;

// A value padded and aligned to a full cache line. `alignas` on the struct
// rounds sizeof up to the alignment, so arrays of CacheAligned<T> place each
// element on its own line.
template <typename T>
struct alignas(kCacheLineBytes) CacheAligned {
  T value{};
};

class BumpArena {
 public:
  explicit BumpArena(size_t initial_bytes = 1 << 16)
      : initial_bytes_(initial_bytes < kMinBlock ? kMinBlock : initial_bytes) {}

  BumpArena(const BumpArena&) = delete;
  BumpArena& operator=(const BumpArena&) = delete;

  // Storage for `bytes` bytes aligned to `align` (a power of two). Never
  // returns null; valid until the next Reset().
  void* Alloc(size_t bytes, size_t align) {
    GOVDNS_CHECK(align != 0 && (align & (align - 1)) == 0);
    for (;;) {
      if (cur_ < blocks_.size()) {
        Block& b = blocks_[cur_];
        size_t off = (off_ + align - 1) & ~(align - 1);
        if (off + bytes <= b.size) {
          off_ = off + bytes;
          return b.data.get() + off;
        }
        // Try the next block (only reachable mid-seed after an overflow).
        ++cur_;
        off_ = 0;
        continue;
      }
      AddBlock(bytes + align);
    }
  }

  template <typename T>
  T* AllocArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>);
    return static_cast<T*>(Alloc(count * sizeof(T), alignof(T)));
  }

  // Reclaims every allocation. If the last cycle overflowed into extra
  // blocks, they are coalesced into one block of at least the total size,
  // so the steady state is a single block and an O(1) reset.
  void Reset() {
    if (blocks_.size() > 1) {
      size_t total = 0;
      for (const Block& b : blocks_) total += b.size;
      blocks_.clear();
      AddBlock(total);
    }
    cur_ = 0;
    off_ = 0;
  }

  size_t block_count() const { return blocks_.size(); }
  size_t capacity_bytes() const {
    size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

 private:
  static constexpr size_t kMinBlock = 256;

  struct Block {
    std::unique_ptr<std::byte[]> data;
    size_t size = 0;
  };

  void AddBlock(size_t at_least) {
    size_t size = blocks_.empty() ? initial_bytes_ : blocks_.back().size * 2;
    if (size < at_least) size = at_least;
    blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size});
    cur_ = blocks_.size() - 1;
    off_ = 0;
  }

  size_t initial_bytes_;
  std::vector<Block> blocks_;
  size_t cur_ = 0;  // block currently being bumped
  size_t off_ = 0;  // bump offset within blocks_[cur_]
};

// Minimal vector over arena storage. Construct after the owning arena's
// latest Reset(); clear() keeps the span for reuse within the cycle.
// Elements must not own resources (no destructor runs, grow relocates by
// copy) — trivially destructible and trivially copy-constructible covers
// scalars and std::pair of scalars, the scratch types this exists for.
template <typename T>
class ArenaVec {
  static_assert(std::is_trivially_destructible_v<T> &&
                std::is_trivially_copy_constructible_v<T>);

 public:
  explicit ArenaVec(BumpArena* arena) : arena_(arena) {}

  void push_back(const T& v) {
    if (size_ == cap_) Grow();
    data_[size_++] = v;
  }
  template <typename... Args>
  void emplace_back(Args&&... args) {
    push_back(T(std::forward<Args>(args)...));
  }

  void clear() { size_ = 0; }
  void resize_down(size_t n) {
    GOVDNS_CHECK(n <= size_);
    size_ = n;
  }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  void Grow() {
    size_t cap = cap_ == 0 ? 8 : cap_ * 2;
    T* data = arena_->AllocArray<T>(cap);
    std::copy(data_, data_ + size_, data);
    data_ = data;
    cap_ = cap;
  }

  BumpArena* arena_;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t cap_ = 0;
};

}  // namespace govdns::util
