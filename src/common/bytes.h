// One byte codec for every binary format that leaves the process: wire
// messages and frame headers (net/), journal frames (io/wal) and the
// model file with its FTPT section (core/serialization, tpt/frozen_tpt).
//
// Writing is free Put* functions that append to a std::string. Reading
// is one Cursor over a byte range. Every read returns false on failure
// and latches it, so every later read fails too: a decoder can chain
// reads and check once at the end. The cursor holds the rules every
// decoder shares:
//   - a read past the end fails;
//   - Int() narrows an i64 slot to int only when the value fits, so a
//     decoded value re-encodes to the same bytes;
//   - Flag() accepts a u8 of 0 or 1 only;
//   - Count() refuses a u32 count whose items, at `min_item_bytes`
//     each, cannot fit in the bytes left. A caller may reserve() what
//     it returns: a lying count never sizes an allocation beyond what
//     the input's length allows.
//
// Byte order: little-endian. Values are copied in host order, and the
// static_assert below stops a big-endian build from compiling, so the
// bytes are the same on every host that builds.

#ifndef HPM_COMMON_BYTES_H_
#define HPM_COMMON_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace hpm::bytes {

static_assert(std::endian::native == std::endian::little,
              "the byte codec writes little-endian by copying host order");

inline void PutBytes(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  PutBytes(out, &v, sizeof(v));
}

inline void PutU64(std::string* out, uint64_t v) {
  PutBytes(out, &v, sizeof(v));
}

inline void PutI32(std::string* out, int32_t v) {
  PutBytes(out, &v, sizeof(v));
}

inline void PutI64(std::string* out, int64_t v) {
  PutBytes(out, &v, sizeof(v));
}

inline void PutF64(std::string* out, double v) {
  PutBytes(out, &v, sizeof(v));
}

/// A u32 length, then the bytes.
inline void PutString(std::string* out, std::string_view v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  out->append(v);
}

/// Sequential reader over encoded bytes; see the file comment.
class Cursor {
 public:
  explicit Cursor(std::string_view buf)
      : data_(buf.data()), size_(buf.size()) {}
  Cursor(const char* data, size_t size) : data_(data), size_(size) {}

  bool Bytes(void* out, size_t n) {
    if (!Need(n)) return false;
    if (n > 0) std::memcpy(out, data_ + pos_, n);  // `out` may be null
    pos_ += n;
    return true;
  }

  bool U8(uint8_t* v) { return Bytes(v, sizeof(*v)); }
  bool U32(uint32_t* v) { return Bytes(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Bytes(v, sizeof(*v)); }
  bool I32(int32_t* v) { return Bytes(v, sizeof(*v)); }
  bool I64(int64_t* v) { return Bytes(v, sizeof(*v)); }
  bool F64(double* v) { return Bytes(v, sizeof(*v)); }

  /// An i64 slot read into an int; fails when the value does not fit.
  bool Int(int* v) {
    int64_t wide = 0;
    if (!I64(&wide)) return false;
    if (wide < INT32_MIN || wide > INT32_MAX) return Fail();
    *v = static_cast<int>(wide);
    return true;
  }

  /// A u8 flag; fails on anything but 0 or 1.
  bool Flag(bool* v) {
    uint8_t byte = 0;
    if (!U8(&byte)) return false;
    if (byte > 1) return Fail();
    *v = byte != 0;
    return true;
  }

  /// A u32 count of items that take at least `min_item_bytes` each;
  /// fails before the caller allocates when they cannot all fit in the
  /// bytes left.
  bool Count(uint32_t* n, size_t min_item_bytes) {
    if (!U32(n)) return false;
    if (uint64_t{*n} * min_item_bytes > remaining()) return Fail();
    return true;
  }

  /// A length-prefixed string of at most `max_len` bytes (a bound on
  /// lengths read from outside the process, not a format limit).
  bool String(std::string* v, size_t max_len = 1 << 20) {
    uint32_t len = 0;
    if (!U32(&len)) return false;
    if (len > max_len || !Need(len)) return Fail();
    v->assign(data_ + pos_, len);
    pos_ += len;
    return true;
  }

  /// Latches a failure found by the caller's own checks; returns false.
  bool Fail() {
    ok_ = false;
    return false;
  }

  /// True when every read so far succeeded.
  bool ok() const { return ok_; }

  /// True when every read succeeded and the bytes were consumed exactly.
  bool done() const { return ok_ && pos_ == size_; }

  /// Bytes consumed so far.
  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  bool Need(size_t n) {
    if (!ok_ || size_ - pos_ < n) return Fail();
    return true;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace hpm::bytes

#endif  // HPM_COMMON_BYTES_H_
