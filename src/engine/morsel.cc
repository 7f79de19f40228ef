#include "engine/morsel.h"

#include <utility>

namespace sc::engine {

namespace {
thread_local MorselContext* current_context = nullptr;
}  // namespace

std::size_t MorselContext::PlanMorsels(std::size_t rows) const {
  if (runner_ == nullptr || max_morsels_ <= 1 || rows < 2) return 1;
  const std::size_t by_rows = rows / min_morsel_rows_;
  const std::size_t cap = static_cast<std::size_t>(max_morsels_);
  const std::size_t morsels = by_rows < cap ? by_rows : cap;
  return morsels < 1 ? 1 : morsels;
}

std::vector<std::uint64_t> MorselContext::BorrowHashBuffer(
    std::size_t size) {
  std::vector<std::uint64_t> buffer;
  if (!hash_scratch_.empty()) {
    buffer = std::move(hash_scratch_.back());
    hash_scratch_.pop_back();
  }
  buffer.resize(size);
  return buffer;
}

void MorselContext::ReturnHashBuffer(std::vector<std::uint64_t> buffer) {
  if (hash_scratch_.size() < 4) {
    hash_scratch_.push_back(std::move(buffer));
  }
}

MorselContext* CurrentMorselContext() { return current_context; }

MorselScope::MorselScope(MorselContext* context)
    : previous_(current_context) {
  current_context = context;
}

MorselScope::~MorselScope() { current_context = previous_; }

std::vector<std::size_t> MorselBounds(std::size_t rows,
                                      std::size_t morsels) {
  if (morsels < 1) morsels = 1;
  std::vector<std::size_t> bounds(morsels + 1, 0);
  const std::size_t base = rows / morsels;
  const std::size_t extra = rows % morsels;
  for (std::size_t m = 0; m < morsels; ++m) {
    bounds[m + 1] = bounds[m] + base + (m < extra ? 1 : 0);
  }
  return bounds;
}

}  // namespace sc::engine
