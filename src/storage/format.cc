#include "storage/format.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "common/crc32c.h"

namespace sc::storage {

namespace {

constexpr char kMagic[4] = {'S', 'C', 'C', '1'};
constexpr char kFooterMagic[4] = {'S', 'C', 'C', 'F'};

// Per-column encodings (the u8 after the type byte).
constexpr std::uint8_t kEncRaw = 0;
constexpr std::uint8_t kEncForVarint = 1;
constexpr std::uint8_t kEncDict = 2;

// Structural sanity caps: headers declaring more than this are treated
// as corruption before a single byte of payload is allocated. Both are
// far above anything the engine produces (tables here are MV outputs
// with at most a handful of columns).
constexpr std::uint32_t kMaxColumns = 1u << 16;
constexpr std::uint32_t kMaxNameLen = 1u << 16;

// Hostile or torn length fields must never translate into allocations:
// payloads are read in chunks of this many bytes, so a declared
// multi-terabyte payload over a 1 KB file fails after at most one chunk
// of over-allocation.
constexpr std::uint64_t kReadChunk = 4u << 20;

// Payload bytes are read in slices of this size, each checksummed (when
// verifying) right after it lands, while it is still in cache: a
// separate CRC pass over a multi-megabyte payload would stream it from
// memory a second time, at a fraction of the CRC kernel's speed.
constexpr std::size_t kReadSlice = 256u << 10;

/// Write-side stream wrapper: every metadata byte written is folded into
/// the running whole-file CRC32C, so the footer checksum seals the
/// header, the column descriptors, and the per-column checksum words.
/// Column payload bytes go through WriteUnfolded — they are sealed by
/// their own per-column CRC32C, which the file checksum in turn covers,
/// so each byte is hashed exactly once while integrity stays transitive.
class CrcSink {
 public:
  explicit CrcSink(std::ostream& out) : out_(out) {}

  void Write(const void* data, std::size_t size) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    crc_ = common::Crc32c(data, size, crc_);
    bytes_ += static_cast<std::int64_t>(size);
  }

  /// Writes payload bytes without folding them into the file checksum
  /// (their per-column checksum covers them).
  void WriteUnfolded(const void* data, std::size_t size) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    bytes_ += static_cast<std::int64_t>(size);
  }

  template <typename T>
  void WriteRaw(const T& value) {
    Write(&value, sizeof(T));
  }

  std::uint32_t crc() const { return crc_; }
  std::int64_t bytes() const { return bytes_; }
  std::ostream& stream() { return out_; }

 private:
  std::ostream& out_;
  std::uint32_t crc_ = 0;
  std::int64_t bytes_ = 0;
};

/// Read-side mirror of CrcSink: folds consumed bytes into the running
/// file checksum only when verification is on (the unverified fast path
/// costs a branch per read). Every structural read failure throws
/// CorruptFileError — a short read is indistinguishable from truncation.
class CrcSource {
 public:
  CrcSource(std::istream& in, bool verify) : in_(in), verify_(verify) {}

  void Read(void* data, std::size_t size, const char* what) {
    ReadUnfolded(data, size, what);
    if (verify_) crc_ = common::Crc32c(data, size, crc_);
  }

  /// Reads bytes the file checksum does not cover (the magic is folded
  /// separately, the footer holds the checksum).
  void ReadUnfolded(void* data, std::size_t size, const char* what) {
    in_.read(static_cast<char*>(data),
             static_cast<std::streamsize>(size));
    if (!in_) Fail(what);
    consumed_ += static_cast<std::int64_t>(size);
  }

  /// Seeks past `size` payload bytes of a column the caller does not
  /// need, reading none of them. A length that runs past the end of the
  /// stream fails as truncation before the seek, so a hostile length
  /// costs neither a read nor an allocation.
  void Skip(std::uint64_t size, const char* what) {
    const std::streamoff here = in_.tellg();
    if (end_ < 0) {
      in_.seekg(0, std::ios::end);
      end_ = in_.tellg();
    }
    if (here < 0 || end_ < here ||
        size > static_cast<std::uint64_t>(end_ - here)) {
      Fail(what);
    }
    in_.seekg(here + static_cast<std::streamoff>(size));
    if (!in_) Fail(what);
  }

  template <typename T>
  T ReadRaw(const char* what) {
    T value{};
    Read(&value, sizeof(T), what);
    return value;
  }

  /// Reads `size` bytes in bounded chunks: a hostile length field fails
  /// with at most kReadChunk bytes of speculative allocation instead of
  /// reserving the declared size up front. Folds the bytes into the file
  /// checksum (metadata blobs such as column names); payloads go through
  /// ReadPayloadBlob instead.
  std::string ReadBlob(std::uint64_t size, const char* what) {
    std::string buf = ReadPayloadBlob(size, what);
    if (verify_) crc_ = common::Crc32c(buf.data(), buf.size(), crc_);
    return buf;
  }

  /// ReadBlob minus the file-checksum fold: column payloads are verified
  /// against their own per-column checksum (one CRC pass per byte), and
  /// the file checksum seals that checksum word instead. A non-null
  /// `payload_crc` receives the payload's CRC32C.
  std::string ReadPayloadBlob(std::uint64_t size, const char* what,
                              std::uint32_t* payload_crc = nullptr) {
    std::string buf;
    while (buf.size() < size) {
      const std::uint64_t step =
          std::min<std::uint64_t>(kReadChunk, size - buf.size());
      const std::size_t old = buf.size();
      buf.resize(old + static_cast<std::size_t>(step));
      for (std::size_t pos = old; pos < buf.size(); pos += kReadSlice) {
        const std::size_t n = std::min(kReadSlice, buf.size() - pos);
        ReadUnfolded(buf.data() + pos, n, what);
        if (payload_crc != nullptr) {
          *payload_crc = common::Crc32c(buf.data() + pos, n, *payload_crc);
        }
      }
    }
    return buf;
  }

  [[noreturn]] void Fail(const char* what) const {
    throw CorruptFileError(std::string("SCC1: truncated ") + what);
  }

  /// Folds bytes consumed outside Read (the magic, matched raw) into the
  /// running file checksum.
  void FoldCrc(const void* data, std::size_t size) {
    if (verify_) crc_ = common::Crc32c(data, size, crc_);
  }

  bool verify() const { return verify_; }
  std::uint32_t crc() const { return crc_; }
  /// Bytes read so far; skipped payloads are not counted.
  std::int64_t consumed() const { return consumed_; }

 private:
  std::istream& in_;
  const bool verify_;
  std::uint32_t crc_ = 0;
  std::int64_t consumed_ = 0;
  std::streamoff end_ = -1;  // stream length, found by the first Skip
};

void WriteFooter(CrcSink& sink, std::uint64_t num_rows,
                 std::uint32_t num_cols) {
  // The footer itself is excluded from the file checksum (it contains
  // it); capture before writing.
  const std::uint32_t file_crc = sink.crc();
  sink.WriteRaw<std::uint64_t>(num_rows);
  sink.WriteRaw<std::uint32_t>(num_cols);
  sink.WriteRaw<std::uint32_t>(file_crc);
  sink.Write(kFooterMagic, sizeof(kFooterMagic));
}

/// Footer validation runs in both modes: the row/column cross-check and
/// the end marker catch truncation and torn (zero-filled) tails even
/// without checksum arithmetic; the file CRC comparison is gated on
/// verify.
void ReadFooter(CrcSource& source, std::uint64_t num_rows,
                std::uint32_t num_cols) {
  const std::uint32_t computed = source.crc();
  std::uint64_t footer_rows = 0;
  std::uint32_t footer_cols = 0;
  std::uint32_t file_crc = 0;
  char tail[4] = {0, 0, 0, 0};
  source.ReadUnfolded(&footer_rows, sizeof(footer_rows), "footer");
  source.ReadUnfolded(&footer_cols, sizeof(footer_cols), "footer");
  source.ReadUnfolded(&file_crc, sizeof(file_crc), "footer");
  source.ReadUnfolded(tail, sizeof(tail), "footer");
  if (std::memcmp(tail, kFooterMagic, sizeof(kFooterMagic)) != 0) {
    throw CorruptFileError("SCC1: bad footer marker");
  }
  if (footer_rows != num_rows || footer_cols != num_cols) {
    throw CorruptFileError("SCC1: footer row/column mismatch");
  }
  if (source.verify() && file_crc != computed) {
    throw CorruptFileError("SCC1: file checksum mismatch");
  }
}

/// Writes one column's buffered payload with its length prefix and
/// CRC32C trailer — the per-block integrity unit of the format.
void WriteColumnPayload(CrcSink& sink, const std::string& buf) {
  sink.WriteRaw<std::uint64_t>(static_cast<std::uint64_t>(buf.size()));
  sink.WriteUnfolded(buf.data(), buf.size());
  sink.WriteRaw<std::uint32_t>(common::Crc32c(buf.data(), buf.size()));
}

/// Reads one column payload and its checksum trailer; verifies when the
/// source does.
std::string ReadColumnPayload(CrcSource& source) {
  const auto payload_len = source.ReadRaw<std::uint64_t>("payload length");
  std::uint32_t computed = 0;
  std::string buf = source.ReadPayloadBlob(
      payload_len, "column payload", source.verify() ? &computed : nullptr);
  const auto stored = source.ReadRaw<std::uint32_t>("column checksum");
  if (source.verify() && stored != computed) {
    throw CorruptFileError("SCC1: column checksum mismatch");
  }
  return buf;
}

/// Passes over the payload of a column the reader does not return: the
/// length and the checksum word are read (and sealed by the file
/// checksum), the payload is seeked past.
void SkipColumnPayload(CrcSource& source) {
  const auto payload_len = source.ReadRaw<std::uint64_t>("payload length");
  source.Skip(payload_len, "column payload");
  source.ReadRaw<std::uint32_t>("column checksum");
}

// LEB128 varints, buffered into `buf` (one buffer per column payload —
// writes go through the stream once, not byte-at-a-time).
constexpr std::size_t kMaxVarintBytes = 10;

char* PutVarint(char* out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<char>(v);
  return out;
}

void PutVarint(std::string* buf, std::uint64_t v) {
  char bytes[kMaxVarintBytes];
  buf->append(bytes, static_cast<std::size_t>(PutVarint(bytes, v) - bytes));
}

/// Appends the varints of value(0..count): sized once for the worst
/// case and written through a cursor, not grown byte by byte.
template <typename ValueFn>
void PutVarints(std::string* buf, std::size_t count, ValueFn&& value) {
  const std::size_t start = buf->size();
  buf->resize(start + count * kMaxVarintBytes);
  char* out = buf->data() + start;
  for (std::size_t i = 0; i < count; ++i) out = PutVarint(out, value(i));
  buf->resize(static_cast<std::size_t>(out - buf->data()));
}

std::uint64_t GetVarint(const char* data, std::size_t size,
                        std::size_t* pos) {
  // One-byte values (dictionary codes, small frame deltas) are the
  // common case.
  if (*pos < size && (static_cast<std::uint8_t>(data[*pos]) & 0x80) == 0) {
    return static_cast<std::uint8_t>(data[(*pos)++]);
  }
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (*pos >= size || shift > 63) {
      throw CorruptFileError("SCC1: bad varint");
    }
    const std::uint8_t byte = static_cast<std::uint8_t>(data[(*pos)++]);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

// Zig-zag maps signed deltas onto small unsigned varints. Arithmetic is
// done in uint64 so int64-range-spanning frames wrap instead of
// overflowing; the decode wraps back identically.
std::uint64_t ZigZag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t UnZigZag(std::uint64_t u) {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

struct ColumnHeader {
  std::string name;
  engine::DataType type = engine::DataType::kInt64;
};

/// The one encoding each column type is written with.
std::uint8_t EncodingOf(engine::DataType type) {
  switch (type) {
    case engine::DataType::kInt64:
      return kEncForVarint;
    case engine::DataType::kFloat64:
      return kEncRaw;
    case engine::DataType::kString:
      return kEncDict;
  }
  throw std::logic_error("SCC1: bad column type");
}

ColumnHeader ReadColumnHeader(CrcSource& source) {
  ColumnHeader header;
  const auto name_len = source.ReadRaw<std::uint32_t>("column name length");
  if (name_len > kMaxNameLen) {
    throw CorruptFileError("SCC1: column name length exceeds sanity cap");
  }
  header.name = source.ReadBlob(name_len, "column name");
  const auto type_byte = source.ReadRaw<std::uint8_t>("column type");
  if (type_byte > static_cast<std::uint8_t>(engine::DataType::kString)) {
    throw CorruptFileError("SCC1: bad column type");
  }
  header.type = static_cast<engine::DataType>(type_byte);
  return header;
}

template <typename WriteFn>
std::int64_t WriteFileAtomic(const std::string& path, WriteFn&& write_fn) {
  // Write-then-rename so the destination is atomically either the old
  // complete table or the new one: a write that dies mid-stream (fault
  // injection, full disk, crash) must never leave a partial or truncated
  // MV where readers — or a retry — expect a whole file.
  const std::string tmp = path + ".tmp";
  std::int64_t bytes = 0;
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open for write: " + path);
    bytes = write_fn(out);
    out.flush();
    if (!out) throw std::runtime_error("write failed: " + path);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("cannot commit write: " + path);
  }
  return bytes;
}

}  // namespace

std::int64_t WriteTableCompressed(const engine::Table& table,
                                  std::ostream& out) {
  CrcSink sink(out);
  sink.Write(kMagic, sizeof(kMagic));
  sink.WriteRaw<std::uint32_t>(
      static_cast<std::uint32_t>(table.num_columns()));
  sink.WriteRaw<std::uint64_t>(
      static_cast<std::uint64_t>(table.num_rows()));
  std::string buf;  // reused per-column payload buffer
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    const engine::Field& field = table.schema().field(c);
    sink.WriteRaw<std::uint32_t>(
        static_cast<std::uint32_t>(field.name.size()));
    sink.Write(field.name.data(), field.name.size());
    sink.WriteRaw<std::uint8_t>(static_cast<std::uint8_t>(field.type));
    const engine::Column& col = table.column(c);
    buf.clear();
    switch (field.type) {
      case engine::DataType::kInt64: {
        // Frame-of-reference: one raw minimum, zig-zag varint deltas.
        sink.WriteRaw<std::uint8_t>(kEncForVarint);
        std::int64_t min = 0;
        for (std::size_t r = 0; r < col.ints().size(); ++r) {
          if (r == 0 || col.ints()[r] < min) min = col.ints()[r];
        }
        const std::int64_t* values = col.ints().data();
        PutVarints(&buf, col.ints().size(), [&](std::size_t r) {
          return ZigZag(static_cast<std::int64_t>(
              static_cast<std::uint64_t>(values[r]) -
              static_cast<std::uint64_t>(min)));
        });
        sink.WriteRaw<std::int64_t>(min);
        break;
      }
      case engine::DataType::kFloat64: {
        // Doubles stay raw: the bit-identity contract (NaN payloads,
        // -0.0) leaves no room for lossy packing, and these columns are
        // rarely the budget's heavy end.
        sink.WriteRaw<std::uint8_t>(kEncRaw);
        buf.assign(reinterpret_cast<const char*>(col.doubles().data()),
                   col.doubles().size() * sizeof(double));
        break;
      }
      case engine::DataType::kString: {
        // Dictionary page. Plain columns are encoded on the fly, so a
        // plain table reads back compressed.
        sink.WriteRaw<std::uint8_t>(kEncDict);
        std::optional<engine::Column> encoded_copy;
        if (!col.dictionary_encoded()) encoded_copy = col.DictionaryEncode();
        const engine::Column& encoded = encoded_copy ? *encoded_copy : col;
        const engine::Column::Dictionary& dict = *encoded.dictionary();
        PutVarint(&buf, dict.size());
        for (const std::string& s : dict) {
          PutVarint(&buf, s.size());
          buf.append(s);
        }
        const std::int32_t* codes = encoded.codes().data();
        PutVarints(&buf, encoded.codes().size(), [&](std::size_t r) {
          return static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(codes[r]));
        });
        break;
      }
    }
    WriteColumnPayload(sink, buf);
  }
  WriteFooter(sink, static_cast<std::uint64_t>(table.num_rows()),
              static_cast<std::uint32_t>(table.num_columns()));
  if (!out) throw std::runtime_error("SCC1: write failure");
  return sink.bytes();
}

engine::Table ReadTableCompressed(std::istream& in,
                                  const ReadOptions& options,
                                  const engine::ColumnSet* selected,
                                  std::int64_t* bytes_read) {
  CrcSource source(in, options.verify_checksums);
  char magic[4];
  source.ReadUnfolded(magic, sizeof(magic), "magic");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw CorruptFileError("SCC1: bad magic");
  }
  source.FoldCrc(magic, sizeof(magic));
  const auto num_cols = source.ReadRaw<std::uint32_t>("column count");
  if (num_cols > kMaxColumns) {
    throw CorruptFileError("SCC1: column count exceeds sanity cap");
  }
  const auto num_rows = source.ReadRaw<std::uint64_t>("row count");
  std::vector<engine::Field> fields;
  std::vector<engine::Column> columns;
  fields.reserve(num_cols);
  columns.reserve(num_cols);
  for (std::uint32_t c = 0; c < num_cols; ++c) {
    ColumnHeader header = ReadColumnHeader(source);
    const auto encoding = source.ReadRaw<std::uint8_t>("column encoding");
    if (encoding != EncodingOf(header.type)) {
      throw CorruptFileError("SCC1: bad " + engine::ToString(header.type) +
                             " encoding");
    }
    std::int64_t min = 0;
    if (header.type == engine::DataType::kInt64) {
      min = source.ReadRaw<std::int64_t>("frame minimum");
    }
    if (!engine::KeepsColumn(selected, header.name, c)) {
      SkipColumnPayload(source);
      continue;
    }
    const std::string buf = ReadColumnPayload(source);
    switch (header.type) {
      case engine::DataType::kInt64: {
        // Every varint is at least one byte: a row count beyond the
        // payload size is structurally impossible, and checking before
        // the allocation keeps hostile counts from reserving anything.
        if (num_rows > buf.size()) {
          throw CorruptFileError("SCC1: row count exceeds int64 payload");
        }
        std::vector<std::int64_t> values(num_rows);
        std::size_t pos = 0;
        for (std::uint64_t r = 0; r < num_rows; ++r) {
          values[r] = static_cast<std::int64_t>(
              static_cast<std::uint64_t>(min) +
              static_cast<std::uint64_t>(
                  UnZigZag(GetVarint(buf.data(), buf.size(), &pos))));
        }
        if (pos != buf.size()) {
          throw CorruptFileError("SCC1: int64 payload has trailing bytes");
        }
        columns.push_back(engine::Column::FromInts(std::move(values)));
        break;
      }
      case engine::DataType::kFloat64: {
        if (buf.size() % sizeof(double) != 0 ||
            num_rows != buf.size() / sizeof(double)) {
          throw CorruptFileError("SCC1: bad float64 payload size");
        }
        std::vector<double> values(num_rows);
        // An empty vector's data() may be null, which memcpy forbids
        // even for zero bytes.
        if (!buf.empty()) {
          std::memcpy(values.data(), buf.data(), buf.size());
        }
        columns.push_back(engine::Column::FromDoubles(std::move(values)));
        break;
      }
      case engine::DataType::kString: {
        std::size_t pos = 0;
        const std::uint64_t dict_size =
            GetVarint(buf.data(), buf.size(), &pos);
        // Each dictionary entry needs at least its length varint, so the
        // remaining payload bounds the dictionary size (allocation cap).
        if (dict_size > buf.size() - pos) {
          throw CorruptFileError("SCC1: dictionary size exceeds payload");
        }
        const std::size_t entries_begin = pos;
        for (std::uint64_t i = 0; i < dict_size; ++i) {
          const std::uint64_t len = GetVarint(buf.data(), buf.size(), &pos);
          if (len > buf.size() - pos) {
            throw CorruptFileError("SCC1: truncated dictionary entry");
          }
          pos += len;
        }
        // Walks the entries just bounds-checked, stopping early when
        // `visit` returns false.
        auto for_each_entry = [&](auto&& visit) {
          std::size_t at = entries_begin;
          for (std::uint64_t i = 0; i < dict_size; ++i) {
            const std::uint64_t len = GetVarint(buf.data(), buf.size(), &at);
            if (!visit(i, std::string_view(buf.data() + at, len))) {
              return false;
            }
            at += len;
          }
          return true;
        };
        // Byte-identical dictionary pages resolve to one live object, so
        // joins and unions across separately read tables stay on codes.
        // A hit compares the page in place and builds nothing.
        engine::Column::DictionaryPtr dict =
            engine::Column::InternDictionary(
                common::Crc32c(buf.data(), pos),
                [&](const engine::Column::Dictionary& live) {
                  return live.size() == dict_size &&
                         for_each_entry([&](std::uint64_t i,
                                            std::string_view entry) {
                           return live[i] == entry;
                         });
                },
                [&] {
                  engine::Column::Dictionary built(dict_size);
                  for_each_entry(
                      [&](std::uint64_t i, std::string_view entry) {
                        built[i].assign(entry);
                        return true;
                      });
                  return built;
                });
        if (num_rows > buf.size() - pos) {
          throw CorruptFileError("SCC1: row count exceeds code payload");
        }
        std::vector<std::int32_t> codes(num_rows);
        for (std::uint64_t r = 0; r < num_rows; ++r) {
          const std::uint64_t code = GetVarint(buf.data(), buf.size(), &pos);
          if (code >= dict_size) {
            throw CorruptFileError("SCC1: code out of dictionary range");
          }
          codes[r] = static_cast<std::int32_t>(code);
        }
        if (pos != buf.size()) {
          throw CorruptFileError("SCC1: string payload has trailing bytes");
        }
        columns.push_back(
            engine::Column::FromDictionary(std::move(dict), std::move(codes)));
        break;
      }
    }
    fields.push_back(engine::Field{std::move(header.name), header.type});
  }
  ReadFooter(source, num_rows, num_cols);
  if (bytes_read != nullptr) *bytes_read = source.consumed();
  return engine::Table(engine::Schema(std::move(fields)),
                       std::move(columns));
}

std::int64_t WriteTableFileCompressed(const engine::Table& table,
                                      const std::string& path) {
  return WriteFileAtomic(path, [&](std::ostream& out) {
    return WriteTableCompressed(table, out);
  });
}

engine::Table ReadTableFileCompressed(const std::string& path,
                                      const ReadOptions& options,
                                      const engine::ColumnSet* selected,
                                      std::int64_t* bytes_read) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return ReadTableCompressed(in, options, selected, bytes_read);
}

}  // namespace sc::storage
