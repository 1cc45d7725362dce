#include "support/bytes.hpp"

namespace dacm::support {

Status ByteReader::TruncatedError(std::size_t n) const {
  return Corrupted("truncated buffer: need " + std::to_string(n) +
                   " bytes, have " + std::to_string(remaining()));
}

Result<std::uint32_t> ByteReader::ReadVarU32() {
  std::uint32_t v = 0;
  int shift = 0;
  for (;;) {
    DACM_ASSIGN_OR_RETURN(std::uint8_t byte, ReadU8());
    if (shift >= 32) return Corrupted("varint too long");
    v |= static_cast<std::uint32_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

Result<std::uint32_t> ByteReader::ReadCount(std::size_t min_element_bytes) {
  DACM_ASSIGN_OR_RETURN(std::uint32_t count, ReadVarU32());
  if (static_cast<std::uint64_t>(count) * min_element_bytes > remaining()) {
    return Corrupted("element count " + std::to_string(count) +
                     " overruns the " + std::to_string(remaining()) +
                     " bytes left");
  }
  return count;
}

Result<std::string> ByteReader::ReadString() {
  DACM_ASSIGN_OR_RETURN(std::string_view view, ReadStringView());
  return std::string(view);
}

Result<Bytes> ByteReader::ReadBlob() {
  DACM_ASSIGN_OR_RETURN(auto view, ReadBlobView());
  return Bytes(view.begin(), view.end());
}

Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string ToString(std::span<const std::uint8_t> b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

}  // namespace dacm::support
