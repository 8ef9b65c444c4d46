#include "util/bytes.h"

#include "util/string_util.h"

namespace dd {

Status ByteReader::Truncated(const char* what, uint64_t need) const {
  return Status::Corruption(
      StrFormat("truncated %s at offset %zu: need %llu bytes, have %zu", what, pos_,
                static_cast<unsigned long long>(need), remaining()));
}

Status ByteReader::Bytes(uint64_t n, std::string_view* out, const char* what) {
  if (n > remaining()) return Truncated(what, n);
  *out = buf_.substr(pos_, static_cast<size_t>(n));
  pos_ += static_cast<size_t>(n);
  return Status::OK();
}

Status ByteReader::LengthPrefixed(uint64_t cap, std::string_view* out,
                                  const char* what) {
  uint64_t n = 0;
  DD_RETURN_IF_ERROR(U64(&n, what));
  if (n > cap) {
    return Status::Corruption(StrFormat(
        "%s at offset %zu claims %llu bytes (cap %llu)", what, pos_ - 8,
        static_cast<unsigned long long>(n), static_cast<unsigned long long>(cap)));
  }
  return Bytes(n, out, what);
}

Status ByteReader::Array(size_t elem_size, uint64_t count, size_t* offset,
                         const char* what) {
  if (count > remaining() / elem_size) {
    return Status::Corruption(
        StrFormat("truncated %s at offset %zu: need %llu x %zu bytes, have %zu", what,
                  pos_, static_cast<unsigned long long>(count), elem_size,
                  remaining()));
  }
  *offset = pos_;
  pos_ += static_cast<size_t>(count) * elem_size;
  return Status::OK();
}

Status ByteReader::Pad8(const char* what) {
  const size_t pad = (8 - (pos_ & 7)) & 7;
  if (pad > remaining()) return Truncated(what, pad);
  for (size_t i = 0; i < pad; ++i) {
    if (buf_[pos_ + i] != '\0') {
      return Status::Corruption(
          StrFormat("nonzero %s pad byte at offset %zu", what, pos_ + i));
    }
  }
  pos_ += pad;
  return Status::OK();
}

Status ByteReader::Done(const char* what) const {
  if (remaining() != 0) {
    return Status::Corruption(
        StrFormat("%zu trailing bytes in %s section", remaining(), what));
  }
  return Status::OK();
}

}  // namespace dd
