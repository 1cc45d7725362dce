// Byte-level serialization.
//
// ByteWriter appends little-endian scalars, length-prefixed strings and
// blobs to a growable buffer; ByteReader consumes them with bounds checking.
// All wire formats in the repo (contexts, installation packages, server
// protocol, CAN transport) are built on these two.
//
// The free Load/Store helpers are the single place the repo converts
// between wire (little-endian) and host scalars; on little-endian hosts
// they compile to one unaligned load/store.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.hpp"

namespace dacm::support {

using Bytes = std::vector<std::uint8_t>;

// --- little-endian scalar access ------------------------------------------

inline std::uint16_t LoadLeU16(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint16_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
  } else {
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
  }
}

inline std::uint32_t LoadLeU32(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
  } else {
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
  }
}

inline std::uint64_t LoadLeU64(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
  } else {
    return static_cast<std::uint64_t>(LoadLeU32(p)) |
           static_cast<std::uint64_t>(LoadLeU32(p + 4)) << 32;
  }
}

inline void StoreLeU16(std::uint8_t* p, std::uint16_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
  }
}

inline void StoreLeU32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

inline void StoreLeU64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Encoded size of `v` as a ByteWriter::WriteVarU32 varint (1..5 bytes),
/// for framers that size a whole buffer before writing it.
constexpr std::size_t VarU32Size(std::uint32_t v) {
  std::size_t size = 1;
  for (v >>= 7; v != 0; v >>= 7) ++size;
  return size;
}

/// Appends little-endian encoded fields to an internal buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void WriteU8(std::uint8_t v) { buffer_.push_back(v); }
  void WriteU16(std::uint16_t v) { AppendScalar(v); }
  void WriteU32(std::uint32_t v) { AppendScalar(v); }
  void WriteU64(std::uint64_t v) { AppendScalar(v); }
  void WriteI32(std::int32_t v) { WriteU32(static_cast<std::uint32_t>(v)); }
  void WriteI64(std::int64_t v) { WriteU64(static_cast<std::uint64_t>(v)); }

  // The bulk writers are inline: profiles of the fleet pipeline show the
  // per-field call overhead of an out-of-line codec on par with the field
  // copies themselves (millions of calls per campaign).

  /// Unsigned LEB128 (varint); compact encoding for counts.
  void WriteVarU32(std::uint32_t v) {
    while (v >= 0x80) {
      buffer_.push_back(static_cast<std::uint8_t>(v | 0x80));
      v >>= 7;
    }
    buffer_.push_back(static_cast<std::uint8_t>(v));
  }

  /// u32 length prefix + raw bytes.
  void WriteString(std::string_view s) {
    Reserve(4 + s.size());
    WriteU32(static_cast<std::uint32_t>(s.size()));
    buffer_.insert(buffer_.end(), s.begin(), s.end());
  }
  void WriteBlob(std::span<const std::uint8_t> blob) {
    Reserve(4 + blob.size());
    WriteU32(static_cast<std::uint32_t>(blob.size()));
    buffer_.insert(buffer_.end(), blob.begin(), blob.end());
  }

  void WriteRaw(std::span<const std::uint8_t> raw) {
    buffer_.insert(buffer_.end(), raw.begin(), raw.end());
  }

  /// Overwrites the u32 at `offset` (written earlier as a placeholder):
  /// lets a one-pass framer emit a checksum over bytes that follow it.
  void PatchU32(std::size_t offset, std::uint32_t v) {
    StoreLeU32(buffer_.data() + offset, v);
  }

  /// Pre-allocates room for `additional` more bytes, so a burst of writes
  /// whose total size is known up front pays for at most one growth.
  /// Capacity at least doubles whenever a larger buffer is needed, so a
  /// sequence of small Reserve+write rounds (e.g. WriteString in a loop
  /// with no covering outer Reserve) stays amortized-linear instead of
  /// reallocating per call.
  void Reserve(std::size_t additional) {
    const std::size_t need = buffer_.size() + additional;
    if (need > buffer_.capacity()) {
      const std::size_t doubled = buffer_.capacity() * 2;
      buffer_.reserve(need > doubled ? need : doubled);
    }
  }

  const Bytes& bytes() const { return buffer_; }
  Bytes Take() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  template <typename T>
  void AppendScalar(T v) {
    const std::size_t at = buffer_.size();
    buffer_.resize(at + sizeof(T));
    if constexpr (sizeof(T) == 2) {
      StoreLeU16(buffer_.data() + at, v);
    } else if constexpr (sizeof(T) == 4) {
      StoreLeU32(buffer_.data() + at, v);
    } else {
      StoreLeU64(buffer_.data() + at, v);
    }
  }

  Bytes buffer_;
};

/// Consumes fields written by ByteWriter; every read is bounds-checked and
/// returns an error Status on truncation instead of reading out of range.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  // Scalar reads are inline for the same reason the writers are: the
  // view-based parsers issue several per message, and the bounds check is
  // a compare the caller's loop can fold.

  Result<std::uint8_t> ReadU8() {
    DACM_RETURN_IF_ERROR(Need(1));
    return data_[pos_++];
  }
  Result<std::uint16_t> ReadU16() {
    DACM_RETURN_IF_ERROR(Need(2));
    const std::uint16_t v = LoadLeU16(data_.data() + pos_);
    pos_ += 2;
    return v;
  }
  Result<std::uint32_t> ReadU32() {
    DACM_RETURN_IF_ERROR(Need(4));
    const std::uint32_t v = LoadLeU32(data_.data() + pos_);
    pos_ += 4;
    return v;
  }
  Result<std::uint64_t> ReadU64() {
    DACM_RETURN_IF_ERROR(Need(8));
    const std::uint64_t v = LoadLeU64(data_.data() + pos_);
    pos_ += 8;
    return v;
  }
  Result<std::int32_t> ReadI32() {
    DACM_ASSIGN_OR_RETURN(std::uint32_t v, ReadU32());
    return static_cast<std::int32_t>(v);
  }
  Result<std::int64_t> ReadI64() {
    DACM_ASSIGN_OR_RETURN(std::uint64_t v, ReadU64());
    return static_cast<std::int64_t>(v);
  }
  Result<std::uint32_t> ReadVarU32();
  /// Reads a VarU32 element count and rejects it (kCorrupted) when
  /// `count` elements of at least `min_element_bytes` each cannot fit in
  /// the unconsumed bytes, so a decoder may reserve(count) on a count
  /// read from untrusted input.
  Result<std::uint32_t> ReadCount(std::size_t min_element_bytes);
  Result<std::string> ReadString();
  Result<Bytes> ReadBlob();

  /// Zero-copy variants: the returned view aliases the reader's underlying
  /// buffer and is valid only as long as that buffer outlives it.  Use at
  /// dispatch sites that inspect a field and drop it before returning.
  Result<std::string_view> ReadStringView() {
    DACM_ASSIGN_OR_RETURN(std::uint32_t len, ReadU32());
    DACM_RETURN_IF_ERROR(Need(len));
    std::string_view s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  Result<std::span<const std::uint8_t>> ReadBlobView() {
    DACM_ASSIGN_OR_RETURN(std::uint32_t len, ReadU32());
    DACM_RETURN_IF_ERROR(Need(len));
    std::span<const std::uint8_t> b = data_.subspan(pos_, len);
    pos_ += len;
    return b;
  }

  /// Number of unconsumed bytes.
  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  Status Need(std::size_t n) const {
    // The error branch stays out of line so the hot check is a compare.
    if (remaining() < n) [[unlikely]] return TruncatedError(n);
    return OkStatus();
  }
  Status TruncatedError(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Convenience: copy a string's characters into a byte vector.
Bytes ToBytes(std::string_view s);

/// Convenience: interpret bytes as text (for tests/logging).
std::string ToString(std::span<const std::uint8_t> b);

}  // namespace dacm::support
