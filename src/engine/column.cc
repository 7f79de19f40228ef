#include "engine/column.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace sc::engine {

namespace {
// Process-wide tally backing the sc_dict_columns_total gauge.
std::atomic<std::int64_t> g_dict_columns_created{0};
std::atomic<std::int64_t> g_cross_dictionary_fallbacks{0};

/// The InternDictionary registry: weak references bucketed by content
/// hash. Expired entries are dropped when their bucket is looked up,
/// and all of them once the map grows past twice its live count at the
/// last sweep.
struct DictionaryRegistry {
  std::mutex mu;
  std::unordered_multimap<std::uint64_t,
                          std::weak_ptr<const Column::Dictionary>>
      entries;
  std::size_t live_at_sweep = 0;
};

DictionaryRegistry& Registry() {
  // Leaked on purpose: tables may be read or destroyed during static
  // destruction.
  static auto* registry = new DictionaryRegistry;
  return *registry;
}

/// Live dictionaries registered under `hash`; erases the bucket's
/// expired entries on the way. Caller holds the registry mutex.
std::vector<Column::DictionaryPtr> LiveUnder(DictionaryRegistry& registry,
                                             std::uint64_t hash) {
  std::vector<Column::DictionaryPtr> live;
  auto [it, end] = registry.entries.equal_range(hash);
  while (it != end) {
    if (Column::DictionaryPtr dict = it->second.lock()) {
      live.push_back(std::move(dict));
      ++it;
    } else {
      it = registry.entries.erase(it);
    }
  }
  return live;
}
}  // namespace

std::int64_t CrossDictionaryFallbacks() {
  return g_cross_dictionary_fallbacks.load(std::memory_order_relaxed);
}

void CountCrossDictionaryFallback() {
  g_cross_dictionary_fallbacks.fetch_add(1, std::memory_order_relaxed);
}

Column::DictionaryPtr Column::InternDictionary(
    std::uint64_t hash, const std::function<bool(const Dictionary&)>& matches,
    const std::function<Dictionary()>& build) {
  DictionaryRegistry& registry = Registry();
  std::vector<DictionaryPtr> candidates;
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    candidates = LiveUnder(registry, hash);
  }
  for (const DictionaryPtr& live : candidates) {
    if (matches(*live)) return live;
  }
  auto built = std::make_shared<const Dictionary>(build());
  std::lock_guard<std::mutex> lock(registry.mu);
  // A concurrent reader of the same content may have registered first;
  // its object then wins.
  for (const DictionaryPtr& live : LiveUnder(registry, hash)) {
    if (*live == *built) return live;
  }
  registry.entries.emplace(hash, built);
  if (registry.entries.size() > 2 * registry.live_at_sweep) {
    std::erase_if(registry.entries,
                  [](const auto& entry) { return entry.second.expired(); });
    registry.live_at_sweep = registry.entries.size();
  }
  return built;
}

std::size_t Column::LiveInternedDictionaries() {
  DictionaryRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return static_cast<std::size_t>(std::count_if(
      registry.entries.begin(), registry.entries.end(),
      [](const auto& entry) { return !entry.second.expired(); }));
}

Column Column::FromInts(std::vector<std::int64_t> values) {
  Column c(DataType::kInt64);
  c.ints_ = std::move(values);
  return c;
}

Column Column::FromDoubles(std::vector<double> values) {
  Column c(DataType::kFloat64);
  c.doubles_ = std::move(values);
  return c;
}

Column Column::FromStrings(std::vector<std::string> values) {
  Column c(DataType::kString);
  c.strings_ = std::move(values);
  return c;
}

Column Column::FromDictionary(DictionaryPtr dictionary,
                              std::vector<std::int32_t> codes) {
  if (dictionary == nullptr) {
    throw std::invalid_argument("Column::FromDictionary: null dictionary");
  }
  Column c(DataType::kString);
  c.AdoptDictionary(dictionary);
  c.codes_ = std::move(codes);
  return c;
}

Column::DictionaryPtr Column::MakeDictionary(
    std::vector<std::string> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return std::make_shared<const Dictionary>(std::move(values));
}

void Column::AdoptDictionary(const DictionaryPtr& dict) {
  dict_ = dict;
  g_dict_columns_created.fetch_add(1, std::memory_order_relaxed);
}

std::int64_t Column::dict_columns_created() {
  return g_dict_columns_created.load(std::memory_order_relaxed);
}

void Column::EnsurePlainStrings() {
  if (dict_ == nullptr) return;
  std::vector<std::string> plain;
  plain.reserve(codes_.size());
  const Dictionary& dict = *dict_;
  for (const std::int32_t code : codes_) {
    plain.push_back(dict[static_cast<std::size_t>(code)]);
  }
  strings_ = std::move(plain);
  codes_.clear();
  codes_.shrink_to_fit();
  dict_.reset();
}

void Column::DecodeForForeignRows() {
  if (dict_ == nullptr) return;
  CountCrossDictionaryFallback();
  EnsurePlainStrings();
}

Column Column::DictionaryEncode() const {
  if (type_ != DataType::kString) {
    throw std::invalid_argument("Column::DictionaryEncode: not a string column");
  }
  if (dict_ != nullptr) return *this;
  DictionaryPtr dict = MakeDictionary(strings_);
  std::vector<std::int32_t> codes(strings_.size());
  const auto begin = dict->begin();
  const auto end = dict->end();
  for (std::size_t r = 0; r < strings_.size(); ++r) {
    codes[r] = static_cast<std::int32_t>(
        std::lower_bound(begin, end, strings_[r]) - begin);
  }
  return FromDictionary(std::move(dict), std::move(codes));
}

Column Column::DecodeDictionary() const {
  if (type_ != DataType::kString) {
    throw std::invalid_argument("Column::DecodeDictionary: not a string column");
  }
  if (dict_ == nullptr) return *this;
  Column c(DataType::kString);
  c.strings_.reserve(codes_.size());
  const Dictionary& dict = *dict_;
  for (const std::int32_t code : codes_) {
    c.strings_.push_back(dict[static_cast<std::size_t>(code)]);
  }
  return c;
}

std::size_t Column::size() const {
  switch (type_) {
    case DataType::kInt64:
      return ints_.size();
    case DataType::kFloat64:
      return doubles_.size();
    case DataType::kString:
      return dict_ != nullptr ? codes_.size() : strings_.size();
  }
  return 0;
}

Value Column::GetValue(std::size_t row) const {
  switch (type_) {
    case DataType::kInt64:
      return ints_[row];
    case DataType::kFloat64:
      return doubles_[row];
    case DataType::kString:
      return GetString(row);
  }
  throw std::logic_error("Column::GetValue: bad type");
}

void Column::AppendValue(const Value& value) {
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(AsInt64(value));
      return;
    case DataType::kFloat64:
      doubles_.push_back(AsDouble(value));
      return;
    case DataType::kString:
      AppendString(std::get<std::string>(value));
      return;
  }
  throw std::logic_error("Column::AppendValue: bad type");
}

void Column::AppendString(std::string v) {
  if (dict_ != nullptr) {
    // Appending an arbitrary string cannot stay on a shared immutable
    // dictionary; decode first. Hot paths append via AppendFrom /
    // GatherFrom, which keep the encoding.
    EnsurePlainStrings();
  }
  strings_.push_back(std::move(v));
}

void Column::AppendFrom(const Column& other, std::size_t row) {
  if (other.type_ != type_) {
    throw std::invalid_argument("Column::AppendFrom: type mismatch");
  }
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(other.ints_[row]);
      return;
    case DataType::kFloat64:
      doubles_.push_back(other.doubles_[row]);
      return;
    case DataType::kString:
      if (other.dict_ != nullptr) {
        if (dict_ == other.dict_) {
          codes_.push_back(other.codes_[row]);
          return;
        }
        if (dict_ == nullptr && strings_.empty()) {
          // Fresh destination adopts the source's dictionary, so
          // row-at-a-time materialization keeps the encoding.
          AdoptDictionary(other.dict_);
          codes_.push_back(other.codes_[row]);
          return;
        }
      }
      DecodeForForeignRows();
      strings_.push_back(other.GetString(row));
      return;
  }
}

void Column::GatherFrom(const Column& other,
                        const std::vector<std::uint32_t>& rows) {
  if (other.type_ != type_) {
    throw std::invalid_argument("Column::GatherFrom: type mismatch");
  }
  switch (type_) {
    case DataType::kInt64: {
      const std::size_t base = ints_.size();
      // Exact reserve before resize: gathering onto a non-empty column
      // would otherwise take libstdc++'s geometric growth and
      // over-allocate up to 2x.
      if (base + rows.size() > ints_.capacity()) {
        ints_.reserve(base + rows.size());
      }
      ints_.resize(base + rows.size());
      const std::int64_t* src = other.ints_.data();
      std::int64_t* dst = ints_.data() + base;
      for (std::size_t i = 0; i < rows.size(); ++i) dst[i] = src[rows[i]];
      return;
    }
    case DataType::kFloat64: {
      const std::size_t base = doubles_.size();
      if (base + rows.size() > doubles_.capacity()) {
        doubles_.reserve(base + rows.size());
      }
      doubles_.resize(base + rows.size());
      const double* src = other.doubles_.data();
      double* dst = doubles_.data() + base;
      for (std::size_t i = 0; i < rows.size(); ++i) dst[i] = src[rows[i]];
      return;
    }
    case DataType::kString: {
      if (other.dict_ != nullptr &&
          (dict_ == other.dict_ ||
           (dict_ == nullptr && strings_.empty()))) {
        if (dict_ == nullptr) AdoptDictionary(other.dict_);
        // Selection/join materialization of an encoded column is an
        // int32 gather — no string copies at all.
        const std::size_t base = codes_.size();
        if (base + rows.size() > codes_.capacity()) {
          codes_.reserve(base + rows.size());
        }
        codes_.resize(base + rows.size());
        const std::int32_t* src = other.codes_.data();
        std::int32_t* dst = codes_.data() + base;
        for (std::size_t i = 0; i < rows.size(); ++i) dst[i] = src[rows[i]];
        return;
      }
      DecodeForForeignRows();
      strings_.reserve(strings_.size() + rows.size());
      for (const std::uint32_t r : rows) {
        strings_.push_back(other.GetString(r));
      }
      return;
    }
  }
}

void Column::AppendRangeFrom(const Column& other, std::size_t begin,
                             std::size_t end) {
  if (other.type_ != type_) {
    throw std::invalid_argument("Column::AppendRangeFrom: type mismatch");
  }
  // Exact reserve: vector::insert grows geometrically when the range
  // overflows capacity, which over-allocates on chunked appends.
  switch (type_) {
    case DataType::kInt64:
      if (ints_.size() + (end - begin) > ints_.capacity()) {
        ints_.reserve(ints_.size() + (end - begin));
      }
      ints_.insert(ints_.end(), other.ints_.begin() + begin,
                   other.ints_.begin() + end);
      return;
    case DataType::kFloat64:
      if (doubles_.size() + (end - begin) > doubles_.capacity()) {
        doubles_.reserve(doubles_.size() + (end - begin));
      }
      doubles_.insert(doubles_.end(), other.doubles_.begin() + begin,
                      other.doubles_.begin() + end);
      return;
    case DataType::kString:
      if (other.dict_ != nullptr &&
          (dict_ == other.dict_ ||
           (dict_ == nullptr && strings_.empty()))) {
        if (dict_ == nullptr) AdoptDictionary(other.dict_);
        if (codes_.size() + (end - begin) > codes_.capacity()) {
          codes_.reserve(codes_.size() + (end - begin));
        }
        codes_.insert(codes_.end(), other.codes_.begin() + begin,
                      other.codes_.begin() + end);
        return;
      }
      DecodeForForeignRows();
      if (strings_.size() + (end - begin) > strings_.capacity()) {
        strings_.reserve(strings_.size() + (end - begin));
      }
      for (std::size_t r = begin; r < end; ++r) {
        strings_.push_back(other.GetString(r));
      }
      return;
  }
}

void Column::Reserve(std::size_t n) {
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(n);
      return;
    case DataType::kFloat64:
      doubles_.reserve(n);
      return;
    case DataType::kString:
      if (dict_ != nullptr) {
        codes_.reserve(n);
      } else {
        strings_.reserve(n);
      }
      return;
  }
}

std::int64_t Column::ByteSize() const {
  switch (type_) {
    case DataType::kInt64:
      return static_cast<std::int64_t>(ints_.size() * sizeof(std::int64_t));
    case DataType::kFloat64:
      return static_cast<std::int64_t>(doubles_.size() * sizeof(double));
    case DataType::kString: {
      static const std::size_t kSsoCapacity = std::string().capacity();
      if (dict_ != nullptr) {
        // Encoded footprint: 4 bytes per row plus the dictionary. The
        // dictionary is charged in full to each referencing column —
        // conservative when shared, but it keeps per-column accounting
        // local, and dictionaries are small (<=~64k entries) next to
        // the row vectors they replace.
        std::int64_t total = static_cast<std::int64_t>(
            codes_.size() * sizeof(std::int32_t));
        total += static_cast<std::int64_t>(dict_->size() *
                                           sizeof(std::string));
        for (const auto& s : *dict_) {
          if (s.capacity() > kSsoCapacity) {
            total += static_cast<std::int64_t>(s.capacity()) + 1;
          }
        }
        return total;
      }
      // The std::string objects themselves, plus each string's heap
      // block. Heap blocks are sized by capacity (what the allocator
      // handed out), not size; strings short enough for the small-string
      // optimization live inside the object and add nothing.
      std::int64_t total = static_cast<std::int64_t>(
          strings_.size() * sizeof(std::string));
      for (const auto& s : strings_) {
        if (s.capacity() > kSsoCapacity) {
          total += static_cast<std::int64_t>(s.capacity()) + 1;
        }
      }
      return total;
    }
  }
  return 0;
}

double Column::NumericAt(std::size_t row) const {
  switch (type_) {
    case DataType::kInt64:
      return static_cast<double>(ints_[row]);
    case DataType::kFloat64:
      return doubles_[row];
    case DataType::kString:
      throw std::invalid_argument("NumericAt: string column");
  }
  return 0;
}

bool Column::operator==(const Column& other) const {
  if (type_ != other.type_) return false;
  if (type_ == DataType::kString) {
    const std::size_t n = size();
    if (n != other.size()) return false;
    if (dict_ != nullptr && dict_ == other.dict_) {
      return codes_ == other.codes_;
    }
    if (dict_ == nullptr && other.dict_ == nullptr) {
      return strings_ == other.strings_;
    }
    // Mixed (or differently-dictionaried) representations: compare
    // logical content row by row.
    for (std::size_t r = 0; r < n; ++r) {
      if (GetString(r) != other.GetString(r)) return false;
    }
    return true;
  }
  if (ints_ != other.ints_) return false;
  // Doubles compare by bit pattern (NaN == NaN, 0.0 != -0.0): equality
  // means bit-identical contents, which is what the golden equivalence
  // suite and the runtime's disk round-trip checks assert.
  if (doubles_.size() != other.doubles_.size()) return false;
  return doubles_.empty() ||
         std::memcmp(doubles_.data(), other.doubles_.data(),
                     doubles_.size() * sizeof(double)) == 0;
}

}  // namespace sc::engine
