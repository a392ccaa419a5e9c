// Little-endian byte I/O, the one reader and writer of the tree's wire
// formats: viz protocol messages, progressive tile streams, the BWT and LZW
// containers and the testkit's request/reply messages.
//
// put_u16/put_u32 append an integer LSB-first whatever the host byte order,
// and load_u16 reads one back from bytes the caller has already checked;
// store_i16s/load_i16s do the same for a row of i16 values in one step.
// ByteReader is a bounds-checked cursor over a byte span; every read goes
// through take(), so a format that reads through it cannot run past its
// input.  A failed read throws std::runtime_error("<format>: truncated")
// and done() throws ("<format>: trailing bytes"), where <format> names the
// format being parsed ("viz protocol", "bwt", ...).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace avf::util {

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v));
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

/// The u16 stored LSB-first at `p`, which must have two readable bytes;
/// for bulk reads from a span ByteReader::take already bounds-checked.
inline std::uint16_t load_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | p[1] << 8);
}

/// Row forms for i16 arrays: store_i16s writes the `n` values at `src` to
/// `dst` (2n writable bytes) LSB-first, and load_i16s reads them back.
/// Plain loops, not memcpy: the compiler turns them into vector moves,
/// where a memcpy of a short row became a slow `rep movs`.
inline void store_i16s(std::uint8_t* dst, const std::int16_t* src,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    auto v = static_cast<std::uint16_t>(src[i]);
    dst[2 * i] = static_cast<std::uint8_t>(v);
    dst[2 * i + 1] = static_cast<std::uint8_t>(v >> 8);
  }
}

inline void load_i16s(std::int16_t* dst, const std::uint8_t* src,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::int16_t>(load_u16(src + 2 * i));
  }
}

class ByteReader {
 public:
  /// Reads `data`, which must outlive the reader.  `format` names the
  /// format in error messages.
  ByteReader(std::span<const std::uint8_t> data, std::string_view format)
      : data_(data), format_(format) {}

  std::uint8_t u8() { return take(1)[0]; }

  std::uint16_t u16() { return load_u16(take(2).data()); }

  std::uint32_t u32() {
    std::uint32_t lo = u16();
    return lo | static_cast<std::uint32_t>(u16()) << 16;
  }

  /// The next `n` bytes, in place; throws if fewer than `n` remain.
  std::span<const std::uint8_t> take(std::size_t n) {
    if (n > data_.size() - at_) fail("truncated");
    std::span<const std::uint8_t> out = data_.subspan(at_, n);
    at_ += n;
    return out;
  }

  /// Everything not yet read.
  std::span<const std::uint8_t> rest() { return take(data_.size() - at_); }

  /// Throws unless every byte has been read.
  void done() const {
    if (at_ != data_.size()) fail("trailing bytes");
  }

 private:
  [[noreturn]] void fail(std::string_view what) const {
    throw std::runtime_error(std::string(format_) + ": " + std::string(what));
  }

  std::span<const std::uint8_t> data_;
  std::string_view format_;
  std::size_t at_ = 0;
};

}  // namespace avf::util
