#ifndef DEEPDIVE_UTIL_BYTES_H_
#define DEEPDIVE_UTIL_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/status.h"

namespace dd {

/// ---- Little-endian byte codec -------------------------------------------
///
/// The one encoder and bounds-checked decoder behind every binary format:
/// DDSN snapshot sections (factor/io.h, storage/snapshot.h), serving
/// epochs (serve/epoch.h) and dist wire frames (dist/wire.h). Integers
/// and doubles are stored as their little-endian images.

// Writers append and accessors load native words with memcpy; on a
// big-endian host every word would need a byte swap.
static_assert(std::endian::native == std::endian::little,
              "the byte codec assumes a little-endian host");

inline void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}
inline void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}
/// Bit-exact: the u64 image of `v` (-0.0 and NaN payloads survive).
inline void PutDouble(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}
/// u64 length, then the bytes.
inline void PutBytes(std::string* out, std::string_view bytes) {
  PutU64(out, bytes.size());
  out->append(bytes);
}
/// Zero-pad `out` to the next multiple of 8 bytes.
inline void PadTo8(std::string* out) {
  out->resize((out->size() + 7) & ~size_t{7}, '\0');
}

/// In-place loads of one element at byte `offset` of `base`, for views
/// whose bounds a ByteReader already validated. On 8-aligned mapped data
/// each compiles to a single load; unaligned buffers stay well-defined.
inline uint32_t LoadU32(const char* base, size_t offset) {
  uint32_t v;
  std::memcpy(&v, base + offset, 4);
  return v;
}
inline uint64_t LoadU64(const char* base, size_t offset) {
  uint64_t v;
  std::memcpy(&v, base + offset, 8);
  return v;
}
inline double LoadDouble(const char* base, size_t offset) {
  return std::bit_cast<double>(LoadU64(base, offset));
}

/// Bounds-checked forward reader over a byte buffer. Every method checks
/// the remaining byte count before it touches a byte and reports a defect
/// as Status::Corruption naming `what` and the offset ("truncated <what>
/// at offset N: ...") — never a read past the buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view buf) : buf_(buf) {}

  size_t offset() const { return pos_; }
  size_t remaining() const { return buf_.size() - pos_; }

  Status U32(uint32_t* out, const char* what) {
    if (remaining() < 4) return Truncated(what, 4);
    *out = LoadU32(buf_.data(), pos_);
    pos_ += 4;
    return Status::OK();
  }
  Status U64(uint64_t* out, const char* what) {
    if (remaining() < 8) return Truncated(what, 8);
    *out = LoadU64(buf_.data(), pos_);
    pos_ += 8;
    return Status::OK();
  }
  Status Double(double* out, const char* what) {
    uint64_t bits = 0;
    DD_RETURN_IF_ERROR(U64(&bits, what));
    *out = std::bit_cast<double>(bits);
    return Status::OK();
  }

  /// The next `n` raw bytes, as a view into the buffer.
  Status Bytes(uint64_t n, std::string_view* out, const char* what);
  /// A PutBytes field: u64 length (Corruption above `cap`), then bytes.
  Status LengthPrefixed(uint64_t cap, std::string_view* out, const char* what);
  /// Claim `count` elements of `elem_size` bytes without reading them:
  /// `count * elem_size` is checked against the remaining bytes without
  /// overflow, and `*offset` receives the array's start.
  Status Array(size_t elem_size, uint64_t count, size_t* offset, const char* what);
  /// Skip to the next 8-byte boundary of the buffer; pad bytes must be 0.
  Status Pad8(const char* what);
  /// Corruption ("N trailing bytes in <what> section") unless the whole
  /// buffer was consumed.
  Status Done(const char* what) const;

 private:
  Status Truncated(const char* what, uint64_t need) const;

  std::string_view buf_;
  size_t pos_ = 0;
};

}  // namespace dd

#endif  // DEEPDIVE_UTIL_BYTES_H_
