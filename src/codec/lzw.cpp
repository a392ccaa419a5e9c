#include "codec/lzw.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "codec/bitstream.hpp"
#include "util/bytes.hpp"

namespace avf::codec {

namespace {

constexpr std::uint32_t kClearCode = 256;
constexpr std::uint32_t kFirstCode = 257;
constexpr int kMinBits = 9;
constexpr int kMaxBits = 12;
constexpr std::uint32_t kMaxCode = (1u << kMaxBits) - 1;

/// Dictionary key: (prefix code, next byte) packed into one 32-bit word.
std::uint32_t pack(std::uint32_t prefix, std::uint8_t byte) {
  return (prefix << 8) | byte;
}

/// Open-addressed (key -> code) table for the encoder dictionary.  The
/// dictionary holds at most kMaxCode - kFirstCode + 1 = 3839 entries
/// between clears, so 2^14 slots keeps the load factor under 1/4 and
/// probe chains near one.  `generation` stamps make clear() O(1) — stale
/// slots from earlier dictionary epochs simply read as empty.  Compared to
/// std::unordered_map this removes the per-node allocation and pointer
/// chase on the byte-granular hot loop; the codes produced are identical.
class FlatDict {
 public:
  FlatDict() : keys_(kSlots, 0), codes_(kSlots, 0), stamps_(kSlots, 0) {}

  void clear() { ++generation_; }

  /// Returns the code for `key`, or kNotFound.  Remembers the probe slot
  /// so a miss can be followed by an O(1) insert of the same key.
  std::uint32_t find(std::uint32_t key) {
    std::size_t slot = hash(key);
    while (stamps_[slot] == generation_) {
      if (keys_[slot] == key) return codes_[slot];
      slot = (slot + 1) & (kSlots - 1);
    }
    last_miss_ = slot;
    return kNotFound;
  }

  /// Insert at the slot located by the immediately preceding find() miss.
  void insert_at_miss(std::uint32_t key, std::uint32_t code) {
    keys_[last_miss_] = key;
    codes_[last_miss_] = code;
    stamps_[last_miss_] = generation_;
  }

  static constexpr std::uint32_t kNotFound = 0xFFFFFFFFu;

 private:
  static constexpr std::size_t kSlots = 1u << 14;

  static std::size_t hash(std::uint32_t key) {
    return (key * 2654435761u) >> (32 - 14);
  }

  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> codes_;
  std::vector<std::uint32_t> stamps_;
  std::uint32_t generation_ = 1;
  std::size_t last_miss_ = 0;
};

}  // namespace

Bytes LzwCodec::compress(BytesView input) const {
  Bytes out;
  util::put_u32(out, static_cast<std::uint32_t>(input.size()));
  if (input.empty()) return out;

  BitWriter bits;
  FlatDict dict;
  std::uint32_t next_code = kFirstCode;
  int width = kMinBits;

  std::uint32_t prefix = input[0];
  for (std::size_t i = 1; i < input.size(); ++i) {
    std::uint8_t c = input[i];
    std::uint32_t found = dict.find(pack(prefix, c));
    if (found != FlatDict::kNotFound) {
      prefix = found;
      continue;
    }
    bits.write(prefix, width);
    if (next_code <= kMaxCode) {
      dict.insert_at_miss(pack(prefix, c), next_code);
      // Widen when the *next* code to be emitted would not fit.
      if (next_code == (1u << width) && width < kMaxBits) ++width;
      ++next_code;
    } else {
      bits.write(kClearCode, width);
      dict.clear();
      next_code = kFirstCode;
      width = kMinBits;
    }
    prefix = c;
  }
  bits.write(prefix, width);

  Bytes packed = bits.take();
  out.insert(out.end(), packed.begin(), packed.end());
  return out;
}

Bytes LzwCodec::decompress(BytesView input) const {
  util::ByteReader in(input, "lzw");
  std::uint32_t original_size = in.u32();
  Bytes out;
  // A corrupted header must not trigger a huge up-front allocation; the
  // vector grows on demand if the size is genuine.
  out.reserve(std::min<std::size_t>(original_size, 1u << 22));
  if (original_size == 0) return out;

  BitReader bits(in.rest());
  // Dictionary entry: (prefix code, appended byte); entries < 256 are roots.
  std::vector<std::pair<std::uint32_t, std::uint8_t>> dict;
  auto reset_dict = [&] {
    dict.clear();
    dict.reserve(kMaxCode + 1);
    for (std::uint32_t i = 0; i < kFirstCode; ++i) {
      dict.emplace_back(0xFFFFFFFFu, static_cast<std::uint8_t>(i));
    }
  };
  reset_dict();
  int width = kMinBits;

  auto expand = [&](std::uint32_t code, Bytes& buf) {
    std::size_t start = buf.size();
    while (code >= kFirstCode) {
      if (code >= dict.size()) throw std::runtime_error("lzw: bad code");
      buf.push_back(dict[code].second);
      code = dict[code].first;
    }
    buf.push_back(static_cast<std::uint8_t>(code));
    // The chain unwinds last-byte-first; reverse the appended segment.
    std::reverse(buf.begin() + static_cast<std::ptrdiff_t>(start), buf.end());
  };

  std::uint32_t prev = bits.read(width);
  if (prev >= 256) throw std::runtime_error("lzw: bad first code");
  expand(prev, out);

  while (out.size() < original_size) {
    // Mirror the encoder's width schedule: the encoder widens after
    // emitting the code that makes next_code == 1 << width.
    if (dict.size() == (1u << width) && width < kMaxBits) ++width;
    std::uint32_t code = bits.read(width);
    if (code == kClearCode) {
      reset_dict();
      width = kMinBits;
      prev = bits.read(width);
      if (prev >= 256) throw std::runtime_error("lzw: bad code after clear");
      expand(prev, out);
      continue;
    }
    std::size_t seg_start = out.size();
    if (code < dict.size()) {
      expand(code, out);
      if (dict.size() <= kMaxCode) {
        dict.emplace_back(prev, out[seg_start]);
      }
    } else if (code == dict.size() && dict.size() <= kMaxCode) {
      // The cScSc special case: entry being defined right now.
      std::size_t prev_start = out.size();
      expand(prev, out);
      std::uint8_t first = out[prev_start];
      out.push_back(first);
      dict.emplace_back(prev, first);
    } else {
      throw std::runtime_error("lzw: code out of range");
    }
    prev = code;
  }
  if (out.size() != original_size) {
    throw std::runtime_error("lzw: size mismatch");
  }
  return out;
}

}  // namespace avf::codec
