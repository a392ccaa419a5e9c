#include "codec/bwt.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <queue>
#include <stdexcept>
#include <string>

#include "codec/bitstream.hpp"
#include "util/bytes.hpp"

namespace avf::codec {

namespace bwtdetail {

namespace {

// SA-IS: suffix array by induced sorting (Nong, Zhang & Chan, "Two
// efficient algorithms for linear time suffix array construction", 2009).
// `text` has `n` symbols in [0, alphabet) and ends with a unique smallest
// sentinel; `sa` receives its n entries.  The reduced problem of one
// recursion level lives inside `sa` itself (names in the upper half, the
// reduced suffix array in the lower half), so the only other work memory
// is a type byte per symbol and a bucket counter per alphabet symbol at
// each level, allocated per call.  A reduced string is at most half its
// parent, so that adds at most 6 bytes per input byte to the 4-byte array.

/// The top level: a byte block plus its implicit sentinel, with each byte
/// shifted up by one so the sentinel is symbol 0.
struct ShiftedBytes {
  const std::uint8_t* data;
  std::int32_t size;  // bytes, excluding the sentinel
  std::int32_t operator[](std::int32_t i) const {
    return i < size ? std::int32_t{data[i]} + 1 : 0;
  }
};

constexpr std::int32_t kEmpty = -1;

template <typename Text>
void bucket_bounds(const Text& text, std::int32_t n, std::int32_t alphabet,
                   bool ends, std::vector<std::int32_t>& bucket) {
  std::fill(bucket.begin(), bucket.end(), 0);
  for (std::int32_t i = 0; i < n; ++i) ++bucket[text[i]];
  std::int32_t sum = 0;
  for (std::int32_t c = 0; c < alphabet; ++c) {
    sum += bucket[c];
    bucket[c] = ends ? sum : sum - bucket[c];
  }
}

/// Induce L-type suffixes left to right from the seeded entries, then
/// S-type suffixes right to left.
template <typename Text>
void induce(const Text& text, std::int32_t n, std::int32_t alphabet,
            const std::vector<std::uint8_t>& is_s,
            std::vector<std::int32_t>& bucket, std::int32_t* sa) {
  bucket_bounds(text, n, alphabet, false, bucket);
  for (std::int32_t i = 0; i < n; ++i) {
    std::int32_t j = sa[i] - 1;
    if (j >= 0 && !is_s[j]) sa[bucket[text[j]]++] = j;
  }
  bucket_bounds(text, n, alphabet, true, bucket);
  for (std::int32_t i = n; i-- > 0;) {
    std::int32_t j = sa[i] - 1;
    if (j >= 0 && is_s[j]) sa[--bucket[text[j]]] = j;
  }
}

template <typename Text>
void sais(const Text& text, std::int32_t n, std::int32_t alphabet,
          std::int32_t* sa) {
  if (n == 1) {
    sa[0] = 0;
    return;
  }
  // is_s[i]: suffix i is smaller than suffix i+1.  The sentinel is S, the
  // symbol before it L.
  std::vector<std::uint8_t> is_s(static_cast<std::size_t>(n));
  is_s[n - 1] = true;
  for (std::int32_t i = n - 2; i-- > 0;) {
    is_s[i] = text[i] < text[i + 1] ||
              (text[i] == text[i + 1] && is_s[i + 1]);
  }
  auto is_lms = [&](std::int32_t i) {
    return i > 0 && is_s[i] && !is_s[i - 1];
  };
  std::vector<std::int32_t> bucket(static_cast<std::size_t>(alphabet));

  // Stage 1: sort the LMS substrings by seeding LMS positions at their
  // bucket ends and inducing.
  std::fill(sa, sa + n, kEmpty);
  bucket_bounds(text, n, alphabet, true, bucket);
  for (std::int32_t i = 1; i < n; ++i) {
    if (is_lms(i)) sa[--bucket[text[i]]] = i;
  }
  induce(text, n, alphabet, is_s, bucket, sa);

  // Compact the sorted LMS positions into sa[0, m) and name each LMS
  // substring by rank; equal substrings share a name.  LMS positions are
  // at least two apart, so position p keeps its name in its own slot,
  // sa[m + p / 2].
  std::int32_t m = 0;
  for (std::int32_t i = 0; i < n; ++i) {
    if (is_lms(sa[i])) sa[m++] = sa[i];
  }
  std::fill(sa + m, sa + n, kEmpty);
  std::int32_t names = 0;
  std::int32_t prev = kEmpty;
  for (std::int32_t i = 0; i < m; ++i) {
    std::int32_t pos = sa[i];
    bool differs = prev == kEmpty;
    for (std::int32_t d = 0; !differs; ++d) {
      // The unique sentinel ends every comparison before pos + d or
      // prev + d can pass n - 1.
      if (text[pos + d] != text[prev + d] ||
          is_s[pos + d] != is_s[prev + d]) {
        differs = true;
      } else if (d > 0 && (is_lms(pos + d) || is_lms(prev + d))) {
        break;
      }
    }
    if (differs) {
      ++names;
      prev = pos;
    }
    sa[m + pos / 2] = names - 1;
  }
  // Gather the names, in text order, into the reduced string at sa[n-m, n).
  for (std::int32_t i = n, j = n; i-- > m;) {
    if (sa[i] != kEmpty) sa[--j] = sa[i];
  }

  // Stage 2: suffix array of the reduced string into sa[0, m); recurse
  // only when two LMS substrings share a name.
  std::int32_t* reduced = sa + n - m;
  if (names < m) {
    sais(reduced, m, names, sa);
  } else {
    for (std::int32_t i = 0; i < m; ++i) sa[reduced[i]] = i;
  }

  // Stage 3: map reduced ranks back to LMS positions, seed them in sorted
  // order at their bucket ends, and induce the full suffix array.
  for (std::int32_t i = 1, j = 0; i < n; ++i) {
    if (is_lms(i)) reduced[j++] = i;
  }
  for (std::int32_t i = 0; i < m; ++i) sa[i] = reduced[sa[i]];
  std::fill(sa + m, sa + n, kEmpty);
  bucket_bounds(text, n, alphabet, true, bucket);
  for (std::int32_t i = m; i-- > 0;) {
    std::int32_t j = sa[i];
    sa[i] = kEmpty;
    sa[--bucket[text[j]]] = j;
  }
  induce(text, n, alphabet, is_s, bucket, sa);
}

}  // namespace

std::vector<std::uint32_t> suffix_array(BytesView data) {
  if (data.size() >= static_cast<std::size_t>(INT32_MAX)) {
    throw std::length_error("suffix_array: input too long for int32 indices");
  }
  // Signed and unsigned variants of one integer type may alias, so SA-IS
  // works in place on the returned array.
  std::vector<std::uint32_t> sa(data.size() + 1);
  ShiftedBytes text{data.data(), static_cast<std::int32_t>(data.size())};
  sais(text, static_cast<std::int32_t>(sa.size()), 257,
       reinterpret_cast<std::int32_t*>(sa.data()));
  return sa;
}

Bytes bwt_forward(BytesView block, std::uint32_t& primary_index) {
  std::vector<std::uint32_t> sa = suffix_array(block);
  Bytes out;
  out.reserve(block.size());
  primary_index = 0;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    std::uint32_t p = sa[i];
    if (p == 0) {
      primary_index = static_cast<std::uint32_t>(i);
    } else {
      out.push_back(block[p - 1]);
    }
  }
  return out;
}

Bytes bwt_inverse(BytesView last_column, std::uint32_t primary_index) {
  std::size_t n = last_column.size();
  if (primary_index > n) throw std::runtime_error("bwt: bad primary index");
  // L' = last_column with the sentinel (value -1) inserted at primary_index.
  std::size_t n1 = n + 1;
  auto value_at = [&](std::size_t i) -> int {
    if (i == primary_index) return -1;
    return last_column[i < primary_index ? i : i - 1];
  };
  // C[c] = number of symbols strictly smaller than c; occ via single pass.
  std::array<std::uint32_t, 257> count{};  // index 0 = sentinel, 1+b = byte b
  for (std::size_t i = 0; i < n1; ++i) ++count[value_at(i) + 1];
  std::array<std::uint32_t, 257> before{};
  std::uint32_t sum = 0;
  for (int c = 0; c < 257; ++c) {
    before[c] = sum;
    sum += count[c];
  }
  std::vector<std::uint32_t> lf(n1);
  std::array<std::uint32_t, 257> seen{};
  for (std::size_t i = 0; i < n1; ++i) {
    int c = value_at(i) + 1;
    lf[i] = before[c] + seen[c]++;
  }
  Bytes out(n);
  std::uint32_t row = 0;  // row 0 starts with the sentinel, ends with s[n-1]
  for (std::size_t k = n; k-- > 0;) {
    int v = value_at(row);
    if (v < 0) throw std::runtime_error("bwt: corrupt stream");
    out[k] = static_cast<std::uint8_t>(v);
    row = lf[row];
  }
  return out;
}

Bytes mtf_encode(BytesView input) {
  std::array<std::uint8_t, 256> order;
  for (int i = 0; i < 256; ++i) order[i] = static_cast<std::uint8_t>(i);
  Bytes out;
  out.reserve(input.size());
  for (std::uint8_t b : input) {
    int pos = 0;
    while (order[pos] != b) ++pos;
    out.push_back(static_cast<std::uint8_t>(pos));
    std::memmove(&order[1], &order[0], static_cast<std::size_t>(pos));
    order[0] = b;
  }
  return out;
}

Bytes mtf_decode(BytesView input) {
  std::array<std::uint8_t, 256> order;
  for (int i = 0; i < 256; ++i) order[i] = static_cast<std::uint8_t>(i);
  Bytes out;
  out.reserve(input.size());
  for (std::uint8_t pos : input) {
    std::uint8_t b = order[pos];
    out.push_back(b);
    std::memmove(&order[1], &order[0], static_cast<std::size_t>(pos));
    order[0] = b;
  }
  return out;
}

namespace {

/// Compute Huffman code lengths over an `alphabet`-sized histogram.
void huffman_lengths(std::span<const std::uint64_t> freq,
                     std::span<std::uint8_t> lengths) {
  int alphabet = static_cast<int>(freq.size());
  struct Node {
    std::uint64_t weight;
    int index;  // < alphabet: leaf symbol; >= alphabet: internal node id
  };
  auto cmp = [](const Node& a, const Node& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.index > b.index;  // deterministic tie-break
  };
  std::priority_queue<Node, std::vector<Node>, decltype(cmp)> heap(cmp);
  std::vector<std::pair<int, int>> children;  // internal node -> (left, right)
  for (int s = 0; s < alphabet; ++s) {
    if (freq[s] > 0) heap.push({freq[s], s});
  }
  std::fill(lengths.begin(), lengths.end(), 0);
  if (heap.empty()) return;
  if (heap.size() == 1) {
    lengths[static_cast<std::size_t>(heap.top().index)] = 1;
    return;
  }
  int next_internal = alphabet;
  while (heap.size() > 1) {
    Node a = heap.top();
    heap.pop();
    Node b = heap.top();
    heap.pop();
    children.emplace_back(a.index, b.index);
    heap.push({a.weight + b.weight, next_internal++});
  }
  // Depth-first depth assignment from the root (last internal node).
  std::vector<std::pair<int, int>> stack{{heap.top().index, 0}};
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    if (idx < alphabet) {
      lengths[static_cast<std::size_t>(idx)] =
          static_cast<std::uint8_t>(depth);
    } else {
      auto [l, r] = children[static_cast<std::size_t>(idx - alphabet)];
      stack.push_back({l, depth + 1});
      stack.push_back({r, depth + 1});
    }
  }
}

/// Longest code the encoder emits: one BitWriter::write per symbol.  A
/// Huffman code longer than 32 bits needs at least F(35) = 9,227,465
/// symbols (Fibonacci-weighted frequencies), above BwtCodec::kMaxBlockSize.
constexpr int kMaxEmitLength = 32;

/// Canonical code assignment: symbols sorted by (length, value).  Codes
/// are read MSB-first, so each is stored bit-reversed for the LSB-first
/// BitWriter; the stream is the same as emitting the code bit by bit.
void canonical_codes_reversed(std::span<const std::uint8_t> lengths,
                              std::span<std::uint32_t> reversed) {
  int alphabet = static_cast<int>(lengths.size());
  std::vector<int> symbols;
  for (int s = 0; s < alphabet; ++s) {
    if (lengths[s] > kMaxEmitLength) {
      throw std::length_error("huffman: code longer than 32 bits");
    }
    if (lengths[s] > 0) symbols.push_back(s);
  }
  std::sort(symbols.begin(), symbols.end(), [&](int a, int b) {
    if (lengths[a] != lengths[b]) return lengths[a] < lengths[b];
    return a < b;
  });
  std::uint32_t code = 0;
  int prev_len = 0;
  for (int s : symbols) {
    code <<= (lengths[s] - prev_len);
    prev_len = lengths[s];
    std::uint32_t rev = 0;
    for (int i = 0; i < prev_len; ++i) rev = (rev << 1) | ((code >> i) & 1u);
    reversed[s] = rev;
    ++code;
  }
}

struct CanonicalDecoder {
  static constexpr int kMaxLen = 64;
  std::array<std::uint32_t, kMaxLen + 1> count{}, first_code{}, first_index{};
  std::vector<int> symbols;
  int max_len = 0;

  explicit CanonicalDecoder(std::span<const std::uint8_t> lengths) {
    int alphabet = static_cast<int>(lengths.size());
    for (int s = 0; s < alphabet; ++s) {
      if (lengths[s] > 0) {
        if (lengths[s] > kMaxLen) {
          throw std::runtime_error("huffman: bad table");
        }
        ++count[lengths[s]];
        max_len = std::max<int>(max_len, lengths[s]);
      }
    }
    std::uint32_t code = 0, index = 0;
    for (int len = 1; len <= max_len; ++len) {
      code <<= 1;
      first_code[len] = code;
      first_index[len] = index;
      code += count[len];
      index += count[len];
    }
    for (int len = 1; len <= max_len; ++len) {
      for (int s = 0; s < alphabet; ++s) {
        if (lengths[s] == len) symbols.push_back(s);
      }
    }
  }

  int decode_one(BitReader& bits) const {
    std::uint32_t v = 0;
    for (int len = 1; len <= max_len; ++len) {
      v = (v << 1) | bits.read(1);
      std::uint32_t offset = v - first_code[len];
      if (v >= first_code[len] && offset < count[len]) {
        return symbols[first_index[len] + offset];
      }
    }
    throw std::runtime_error("huffman: bad code");
  }
};

}  // namespace

std::vector<std::uint16_t> rle0_encode(BytesView mtf) {
  std::vector<std::uint16_t> out;
  out.reserve(mtf.size() / 2 + 16);
  std::size_t i = 0;
  auto emit_run = [&](std::size_t r) {
    // Bijective base-2 digits, least significant first: RUNA=0 (value 1),
    // RUNB=1 (value 2).
    while (r > 0) {
      if (r & 1) {
        out.push_back(0);
        r = (r - 1) / 2;
      } else {
        out.push_back(1);
        r = (r - 2) / 2;
      }
    }
  };
  while (i < mtf.size()) {
    if (mtf[i] == 0) {
      std::size_t run = 0;
      while (i < mtf.size() && mtf[i] == 0) {
        ++run;
        ++i;
      }
      emit_run(run);
    } else {
      out.push_back(static_cast<std::uint16_t>(mtf[i] + 1));
      ++i;
    }
  }
  return out;
}

Bytes rle0_decode(std::span<const std::uint16_t> symbols,
                  std::size_t max_output) {
  Bytes out;
  std::size_t i = 0;
  while (i < symbols.size()) {
    if (symbols[i] <= 1) {
      std::size_t run = 0, place = 1;
      while (i < symbols.size() && symbols[i] <= 1) {
        if (place > (std::size_t{1} << 48)) {
          throw std::runtime_error("rle0: run length overflow");
        }
        run += (symbols[i] == 0 ? 1u : 2u) * place;
        place *= 2;
        ++i;
      }
      if (out.size() + run > max_output) {
        throw std::runtime_error("rle0: output exceeds declared size");
      }
      out.insert(out.end(), run, 0);
    } else {
      if (symbols[i] >= kRle0Alphabet) {
        throw std::runtime_error("rle0: symbol out of range");
      }
      if (out.size() + 1 > max_output) {
        throw std::runtime_error("rle0: output exceeds declared size");
      }
      out.push_back(static_cast<std::uint8_t>(symbols[i] - 1));
      ++i;
    }
  }
  return out;
}

Bytes huffman_encode_sym(std::span<const std::uint16_t> symbols, int alphabet,
                         std::vector<std::uint8_t>& lengths_out) {
  std::vector<std::uint64_t> freq(static_cast<std::size_t>(alphabet), 0);
  for (std::uint16_t s : symbols) {
    if (s >= alphabet) throw std::invalid_argument("symbol out of alphabet");
    ++freq[s];
  }
  lengths_out.assign(static_cast<std::size_t>(alphabet), 0);
  huffman_lengths(freq, lengths_out);
  std::vector<std::uint32_t> codes(static_cast<std::size_t>(alphabet), 0);
  canonical_codes_reversed(lengths_out, codes);
  BitWriter bits;
  for (std::uint16_t s : symbols) bits.write(codes[s], lengths_out[s]);
  return bits.take();
}

std::vector<std::uint16_t> huffman_decode_sym(
    BytesView data, std::span<const std::uint8_t> lengths,
    std::size_t symbol_count) {
  CanonicalDecoder decoder{lengths};
  BitReader bits(data);
  std::vector<std::uint16_t> out;
  out.reserve(std::min<std::size_t>(symbol_count, 1u << 22));
  while (out.size() < symbol_count) {
    out.push_back(static_cast<std::uint16_t>(decoder.decode_one(bits)));
  }
  return out;
}

}  // namespace bwtdetail

BwtCodec::BwtCodec(std::size_t block_size) : block_size_(block_size) {
  if (block_size == 0 || block_size > kMaxBlockSize) {
    throw std::invalid_argument("bwt: block size must be in [1, " +
                                std::to_string(kMaxBlockSize) + "]");
  }
}

Bytes BwtCodec::compress(BytesView input) const {
  using namespace bwtdetail;
  Bytes out;
  util::put_u32(out, static_cast<std::uint32_t>(input.size()));
  std::size_t offset = 0;
  while (offset < input.size()) {
    std::size_t len = std::min(block_size_, input.size() - offset);
    BytesView block = input.subspan(offset, len);
    offset += len;

    std::uint32_t primary = 0;
    Bytes transformed = bwt_forward(block, primary);
    Bytes mtf = mtf_encode(transformed);
    std::vector<std::uint16_t> symbols = rle0_encode(mtf);
    std::vector<std::uint8_t> lengths;
    Bytes packed = huffman_encode_sym(symbols, kRle0Alphabet, lengths);

    util::put_u32(out, static_cast<std::uint32_t>(len));
    util::put_u32(out, primary);
    util::put_u32(out, static_cast<std::uint32_t>(symbols.size()));
    util::put_u32(out, static_cast<std::uint32_t>(packed.size()));
    out.insert(out.end(), lengths.begin(), lengths.end());
    out.insert(out.end(), packed.begin(), packed.end());
  }
  return out;
}

Bytes BwtCodec::decompress(BytesView input) const {
  using namespace bwtdetail;
  util::ByteReader in(input, "bwt");
  std::uint32_t total = in.u32();
  Bytes out;
  out.reserve(std::min<std::size_t>(total, 1u << 22));
  while (out.size() < total) {
    std::uint32_t block_len = in.u32();
    // compress never writes a larger block, and decoding a declared block
    // costs memory in proportion to its length, not to the input's.
    if (block_len == 0 || block_len > kMaxBlockSize) {
      throw std::runtime_error("bwt: bad block length");
    }
    std::uint32_t primary = in.u32();
    std::uint32_t sym_count = in.u32();
    std::uint32_t packed_len = in.u32();
    BytesView lengths = in.take(kRle0Alphabet);
    BytesView packed = in.take(packed_len);

    std::vector<std::uint16_t> symbols =
        huffman_decode_sym(packed, lengths, sym_count);
    Bytes mtf = rle0_decode(symbols, block_len);
    if (mtf.size() != block_len) throw std::runtime_error("bwt: bad block");
    Bytes transformed = mtf_decode(mtf);
    Bytes block = bwt_inverse(transformed, primary);
    out.insert(out.end(), block.begin(), block.end());
  }
  if (out.size() != total) throw std::runtime_error("bwt: size mismatch");
  in.done();
  return out;
}

}  // namespace avf::codec
