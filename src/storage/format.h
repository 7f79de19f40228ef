#ifndef SC_STORAGE_FORMAT_H_
#define SC_STORAGE_FORMAT_H_

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "engine/table.h"

namespace sc::storage {

/// Raised by the readers for any integrity failure in an SCC1 stream:
/// bad magic, structurally impossible headers, truncation, torn writes,
/// and (in verifying mode) checksum mismatches. Derives from
/// std::runtime_error so pre-durability catch sites keep working; new
/// code catches the precise type to distinguish "the file is damaged"
/// (fall back to recompute / quarantine) from environmental I/O errors.
class CorruptFileError : public std::runtime_error {
 public:
  explicit CorruptFileError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Read-side integrity knob. With verify_checksums (the default) every
/// column payload read is checked against its stored CRC32C and the
/// footer's whole-file checksum is recomputed — a single flipped bit
/// anywhere in a fully read stream raises CorruptFileError. Without it,
/// readers still parse defensively (bounded allocations, structural
/// bounds checks, footer row/column cross-check and end marker —
/// truncation and torn tails are still caught) but skip the checksum
/// arithmetic; the bench gate keeps the verified mode within 5% of this
/// fast path.
struct ReadOptions {
  bool verify_checksums = true;
};

/// The table format ("SCC1"): the one on-disk representation, used for
/// warehouse tables (the stand-in for the paper's Parquet/ORC files on
/// external storage) and for SharedCatalog spill files alike. Layout:
///
///   magic "SCC1" | u32 num_cols | u64 num_rows
///   per column: u32 name_len | name | u8 type | u8 encoding
///               [| i64 frame_min when encoding == for-varint]
///               | u64 payload_len | payload | u32 payload_crc32c
///   footer: u64 num_rows | u32 num_cols | u32 file_crc32c | "SCCF"
///
/// Encodings:
///   0 raw      — float64 payload, raw array (doubles round-trip by bit
///                pattern; no lossy packing).
///   1 for-varint — int64 payload: raw i64 frame minimum, then one
///                zig-zag LEB128 varint per value of (v - min). Cold
///                surrogate-key/date columns shrink to 1-2 bytes/value.
///   2 dict     — string payload: varint dict_size, dictionary entries
///                (varint len + bytes, sorted unique), then one LEB128
///                varint code per row. Plain string columns are
///                dictionary-encoded on write; the reader always
///                returns a dictionary-encoded engine::Column, so a
///                table read from disk stays compressed in memory too.
///                The reader interns each dictionary page by content
///                (engine::Column::InternDictionary, keyed by the CRC32C
///                of the page): files whose pages are byte-identical
///                read back sharing one live Dictionary object, so
///                operators across them stay on int32 codes.
///
/// The file checksum covers every metadata byte from the magic up to
/// (excluding) the footer — counts, column headers, frame minimums,
/// payload lengths, and the per-column checksum words. Payload bytes are
/// covered by their own per-column CRC32C (hashed exactly once), which
/// the file checksum seals in turn, so a flip anywhere still fails
/// verification. All integers little-endian (host order; the format is
/// not meant for cross-architecture exchange).
///
/// Projected reads: given a column set, the reader returns only those
/// columns. For every other column it still reads the header, frame
/// minimum, payload length and checksum word, and seeks past the
/// payload. A verified projected read therefore checks every byte it
/// consumes plus all metadata (the file checksum still covers the
/// skipped columns' headers and checksum words); only the skipped
/// payload bytes go unchecked, and the next full read checks them.

/// Serializes `table` compressed to `out`. Returns bytes written.
std::int64_t WriteTableCompressed(const engine::Table& table,
                                  std::ostream& out);

/// Deserializes an SCC1 stream. String columns come back
/// dictionary-encoded, on the live dictionary of equal content when one
/// exists. Throws CorruptFileError on a malformed,
/// truncated, or (when verifying) corrupted stream. Hostile length
/// fields never cause over-allocation: payloads are read in bounded
/// chunks, so memory use is capped by the bytes actually present plus
/// one chunk, and a skipped payload that runs past the end of the stream
/// fails as truncation without a read.
///
/// `selected` names the columns to return, in file order (null: all;
/// see engine::ColumnSet); the rest are seeked past, so the stream must
/// be seekable when it is set. A non-null `bytes_read` receives the
/// bytes actually read, skipped payloads excluded.
engine::Table ReadTableCompressed(std::istream& in,
                                  const ReadOptions& options = {},
                                  const engine::ColumnSet* selected = nullptr,
                                  std::int64_t* bytes_read = nullptr);

/// File wrappers. Writes are atomic (write-then-rename: the path holds
/// either the old complete table or the new one). Both throw
/// std::runtime_error on I/O failure; reads throw CorruptFileError on
/// damaged content.
std::int64_t WriteTableFileCompressed(const engine::Table& table,
                                      const std::string& path);
engine::Table ReadTableFileCompressed(
    const std::string& path, const ReadOptions& options = {},
    const engine::ColumnSet* selected = nullptr,
    std::int64_t* bytes_read = nullptr);

}  // namespace sc::storage

#endif  // SC_STORAGE_FORMAT_H_
