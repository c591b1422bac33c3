#pragma once

// Per-frame bump allocator for render and decode scratch. Every frame
// through the capture/decode hot path needs the same handful of
// short-lived buffers (signal rows, shot-sigma rows, scanline colors,
// band scratch); a CaptureArena hands them out as 64-byte-aligned spans
// carved from one block, and reset() recycles the whole block between
// frames. Steady state is a single allocation that lives as long as its
// owner (a RenderScratch or a StreamingReceiver), which a
// pipeline::BufferPool then recycles across thousands of frames.
//
// Alignment contract: every span returned by allocate() starts on a
// 64-byte boundary and is padded to a 64-byte multiple, so SIMD kernels
// may use aligned full-width loads/stores on arena-backed rows without
// prologue peeling. Not thread-safe — one arena per owner, reset once
// per frame by that owner.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

namespace colorbars::util {

class CaptureArena {
 public:
  static constexpr std::size_t kAlignment = 64;

  /// Cumulative counters (never reset); read them from the arena.
  struct Stats {
    std::size_t peak_bytes = 0;   ///< largest total footprint of one frame
    long long resets = 0;         ///< reset() calls
    long long reuse_hits = 0;     ///< resets where the block was big enough
    long long grows = 0;          ///< allocations that had to grow storage
  };

  CaptureArena() = default;
  CaptureArena(CaptureArena&&) noexcept = default;
  CaptureArena& operator=(CaptureArena&&) noexcept = default;
  CaptureArena(const CaptureArena&) = delete;
  CaptureArena& operator=(const CaptureArena&) = delete;

  /// Rewinds the arena for the next frame. If the previous frame
  /// overflowed into side blocks, coalesces to a single block sized for
  /// the observed peak, so steady state is one allocation and no frees.
  void reset() {
    ++stats_.resets;
    if (overflow_.empty()) {
      ++stats_.reuse_hits;
    } else {
      // used_ already counts the overflow spans, so it is the exact
      // footprint the coalesced block must cover.
      overflow_.clear();
      block_ = make_block(used_);
      capacity_ = used_;
    }
    used_ = 0;
  }

  /// A 64-byte-aligned uninitialized span of `count` Ts. T must be
  /// trivially copyable and destructible (the arena never runs
  /// constructors or destructors). Valid until the next reset().
  template <typename T>
  [[nodiscard]] std::span<T> allocate(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "CaptureArena hands out raw storage");
    static_assert(alignof(T) <= kAlignment);
    return {reinterpret_cast<T*>(allocate_bytes(count * sizeof(T))),
            count};
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t capacity_bytes() const noexcept { return capacity_; }

 private:
  struct Deleter {
    void operator()(std::byte* p) const noexcept {
      ::operator delete[](p, std::align_val_t{kAlignment});
    }
  };
  struct Block {
    std::unique_ptr<std::byte[], Deleter> data;
    std::size_t size = 0;
  };

  static std::unique_ptr<std::byte[], Deleter> make_block(std::size_t size) {
    return std::unique_ptr<std::byte[], Deleter>(static_cast<std::byte*>(
        ::operator new[](size, std::align_val_t{kAlignment})));
  }

  std::byte* allocate_bytes(std::size_t bytes) {
    // Round every span up to an alignment multiple so the next span
    // starts aligned too.
    bytes = (bytes + kAlignment - 1) / kAlignment * kAlignment;
    if (bytes == 0) bytes = kAlignment;
    std::byte* out;
    if (block_ && used_ + bytes <= capacity_) {
      out = block_.get() + used_;
    } else {
      // Overflow: side block for the rest of this frame; the next
      // reset() coalesces. Also covers the very first allocation.
      ++stats_.grows;
      if (!block_) {
        block_ = make_block(bytes);
        capacity_ = bytes;
        out = block_.get();
      } else {
        overflow_.push_back({make_block(bytes), bytes});
        out = overflow_.back().data.get();
      }
    }
    used_ += bytes;
    stats_.peak_bytes = used_ > stats_.peak_bytes ? used_ : stats_.peak_bytes;
    return out;
  }

  std::unique_ptr<std::byte[], Deleter> block_;
  std::size_t capacity_ = 0;
  /// Bytes handed out this frame (including overflow spans), which is
  /// also the footprint the next coalesce sizes for.
  std::size_t used_ = 0;
  std::vector<Block> overflow_;
  Stats stats_;
};

}  // namespace colorbars::util
