#include "codec/bwt.hpp"

#include <algorithm>
#include <array>
#include <bit>
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
// reduced suffix array in the lower half).  The other work memory, a type
// byte per symbol (plus kPad) and two counters per alphabet symbol at each
// level, is sliced from one Workspace that a compress() call reuses for
// all of its blocks.  A reduced string is at most half its parent, and its
// alphabet at most its length, so all levels together need under 2 type
// bytes and 2 counters per input symbol, plus 2 x 257 counters at the top.
//
// The hot loops are branch-free.  On wavelet coefficients (small
// little-endian i16 values, high bytes 0x00 or 0xFF) whether a suffix is
// S or L, LMS or not, and whether an induced entry is taken flips almost
// at random, so a branch on it mispredicts about half the time, and those
// misses, not memory traffic, set the loops' speed (removing them halved
// the sorter's time on such blocks).  Such a loop instead writes on every
// step: a rejected entry goes to a trash slot local to the call (pick()),
// and a counter advances by the 0/1 predicate.  The trash slot is not an
// entry of `sa`: in a recursion sa[m] can be the first symbol of the
// parent's reduced string.

/// Bytes readable past the end of the top-level text and of each level's
/// type bytes: the naming loop loads 8 of each at a time.
constexpr std::size_t kPad = 8;

/// The top level: a byte block plus its implicit sentinel, with each byte
/// shifted up by one so the sentinel is symbol 0.  `data` has kPad
/// readable bytes past `size`, the first of them zero.
struct ShiftedBytes {
  const std::uint8_t* data;
  std::int32_t size;  // bytes, excluding the sentinel
  std::int32_t operator[](std::int32_t i) const {
    return std::int32_t{data[i]} + (i < size);
  }
};

/// Work memory of one BwtCodec::compress call, reused by each of its
/// blocks instead of allocating per block and per recursion level.
struct Workspace {
  Bytes text;                          // the block, then kPad zeros
  std::vector<std::uint32_t> sa;       // the block's suffix array
  std::vector<std::uint8_t> types;     // SA-IS type bytes, every level
  std::vector<std::int32_t> counters;  // SA-IS symbol counts and buckets
  Bytes transformed;                   // the block's BWT
};

constexpr std::int32_t kEmpty = -1;

/// Type byte of one text position.
constexpr std::uint8_t kSType = 1;  // suffix i is smaller than suffix i+1
constexpr std::uint8_t kLms = 2;    // S-type after an L-type symbol

/// `take ? yes : no` (take is 0 or 1) through a mask.  GCC compiles
/// `*(take ? yes : no) = v` and `sa[take ? i : j] = v` into a jump.
inline std::int32_t* pick(std::int32_t take, std::int32_t* yes,
                          std::int32_t* no) {
  const std::uintptr_t mask =
      std::uintptr_t{0} - static_cast<std::uintptr_t>(take);
  return reinterpret_cast<std::int32_t*>(
      (reinterpret_cast<std::uintptr_t>(yes) & mask) |
      (reinterpret_cast<std::uintptr_t>(no) & ~mask));
}

/// max(j, 0) for j >= -2: where an induce pass reads a rejected entry's
/// type and symbol.
inline std::int32_t clamp_index(std::int32_t j) { return j & ~(j >> 31); }

void bucket_starts(const std::int32_t* counts, std::int32_t alphabet,
                   std::int32_t* bucket) {
  std::int32_t sum = 0;
  for (std::int32_t c = 0; c < alphabet; ++c) {
    bucket[c] = sum;
    sum += counts[c];
  }
}

void bucket_ends(const std::int32_t* counts, std::int32_t alphabet,
                 std::int32_t* bucket) {
  std::int32_t sum = 0;
  for (std::int32_t c = 0; c < alphabet; ++c) {
    sum += counts[c];
    bucket[c] = sum;
  }
}

/// Induce L-type suffixes left to right from the seeded entries, then
/// S-type suffixes right to left.
template <typename Text>
void induce(const Text& text, std::int32_t n, std::int32_t alphabet,
            const std::uint8_t* type, const std::int32_t* counts,
            std::int32_t* bucket, std::int32_t* sa) {
  std::int32_t trash;
  bucket_starts(counts, alphabet, bucket);
  for (std::int32_t i = 0; i < n; ++i) {
    std::int32_t j = sa[i] - 1;
    std::int32_t at = clamp_index(j);
    std::int32_t take = (j >= 0) & (~type[at] & kSType);
    std::int32_t c = text[at];
    std::int32_t b = bucket[c];
    *pick(take, sa + b, &trash) = j;
    bucket[c] = b + take;
  }
  bucket_ends(counts, alphabet, bucket);
  for (std::int32_t i = n; i-- > 0;) {
    std::int32_t j = sa[i] - 1;
    std::int32_t at = clamp_index(j);
    std::int32_t take = (j >= 0) & (type[at] & kSType);
    std::int32_t c = text[at];
    std::int32_t b = bucket[c] - take;
    *pick(take, sa + b, &trash) = j;
    bucket[c] = b;
  }
}

inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

/// The bits of `word` (a load_u64) that hold its first `len` bytes in
/// memory, 1 <= len <= 8.
inline std::uint64_t first_bytes(std::uint64_t word, std::int32_t len) {
  const int drop = 64 - 8 * len;
  return kLittleEndian ? word << drop : word >> drop;
}

/// Memory index (0 to 7) of the first nonzero byte of a nonzero `word`.
inline std::int32_t first_nonzero_byte(std::uint64_t word) {
  return (kLittleEndian ? std::countr_zero(word) : std::countl_zero(word)) / 8;
}

/// Symbols from LMS position `pos` up to and including the next one.
/// `type` has kPad readable bytes past the text, whose last position is
/// LMS; `pos` is not the last.  LMS positions are at least two apart, and
/// LMS substrings of wavelet blocks are almost all under 10 symbols, so
/// one 8-byte load finds the next.
inline std::int32_t lms_substring_length(const std::uint8_t* type,
                                         std::int32_t pos) {
  constexpr std::uint64_t kLmsBytes = 0x0101010101010101ULL * kLms;
  const std::uint64_t marks = load_u64(type + pos + 1) & kLmsBytes;
  if (marks != 0) return first_nonzero_byte(marks) + 2;
  std::int32_t next = pos + 9;
  while (!(type[next] & kLms)) ++next;
  return next - pos + 1;
}

/// Whether the LMS substrings at `a` and `b`, both `len` symbols long, are
/// equal; `candidate` is false when they are known to differ.  Equal
/// symbols over the length imply equal types: each ends at an S-type LMS
/// symbol, and a symbol's type follows from its successor's.
bool same_substring(const ShiftedBytes& text, std::int32_t a, std::int32_t b,
                    std::int32_t len, bool candidate) {
  // A substring that reaches the unique sentinel equals no other, so only
  // bytes of the block (plus the padding) are ever read.
  const std::int32_t take =
      candidate & (a + len <= text.size) & (b + len <= text.size);
  std::int32_t rest = 1 + ((len - 1) & -take);  // take ? len : 1
  const std::uint8_t* pa = text.data + a;
  const std::uint8_t* pb = text.data + b;
  for (; rest > 8; rest -= 8, pa += 8, pb += 8) {
    if (load_u64(pa) != load_u64(pb)) return false;
  }
  return take & (first_bytes(load_u64(pa) ^ load_u64(pb), rest) == 0);
}

/// The recursion's reduced strings (at most half the block, and no padding
/// to load past) compare symbol by symbol.
bool same_substring(const std::int32_t* text, std::int32_t a, std::int32_t b,
                    std::int32_t len, bool candidate) {
  if (!candidate) return false;
  for (std::int32_t d = 0; d < len; ++d) {
    if (text[a + d] != text[b + d]) return false;
  }
  return true;
}

template <typename T>
void grow(std::vector<T>& v, std::size_t size) {
  if (v.size() < size) v.resize(size);
}

template <typename Text>
void sais(const Text& text, std::int32_t n, std::int32_t alphabet,
          std::int32_t* sa, Workspace& work, std::size_t types_at,
          std::size_t counters_at) {
  if (n == 1) {
    sa[0] = 0;
    return;
  }
  grow(work.types, types_at + static_cast<std::size_t>(n) + kPad);
  grow(work.counters, counters_at + 2 * static_cast<std::size_t>(alphabet));
  std::uint8_t* type = work.types.data() + types_at;
  std::int32_t* counts = work.counters.data() + counters_at;
  std::int32_t* bucket = counts + alphabet;
  std::int32_t trash;

  // Types, right to left: position i + 1 is final once i's type is known.
  // The sentinel is S and LMS, the symbol before it L; position 0 is never
  // LMS.
  // The same scan counts the symbols.
  std::fill(counts, counts + alphabet, 0);
  std::int32_t next_c = text[n - 1];
  std::int32_t next_s = 1;
  ++counts[next_c];
  for (std::int32_t i = n - 1; i-- > 0;) {
    std::int32_t c = text[i];
    std::int32_t s = (c < next_c) | ((c == next_c) & next_s);
    type[i + 1] = static_cast<std::uint8_t>(next_s | ((next_s & ~s) << 1));
    ++counts[c];
    next_c = c;
    next_s = s;
  }
  type[0] = static_cast<std::uint8_t>(next_s);
  auto is_lms = [&type](std::int32_t i) { return type[i] >> 1; };

  // Stage 1: sort the LMS substrings by seeding LMS positions at their
  // bucket ends and inducing.
  std::fill(sa, sa + n, kEmpty);
  bucket_ends(counts, alphabet, bucket);
  for (std::int32_t i = 1; i < n; ++i) {
    std::int32_t seed = is_lms(i);
    std::int32_t c = text[i];
    std::int32_t b = bucket[c] - seed;
    *pick(seed, sa + b, &trash) = i;
    bucket[c] = b;
  }
  induce(text, n, alphabet, type, counts, bucket, sa);

  // Compact the sorted LMS positions into sa[0, m); induced sorting has
  // placed every suffix, so no entry is empty.
  std::int32_t m = 0;
  for (std::int32_t i = 0; i < n; ++i) {
    std::int32_t p = sa[i];
    sa[m] = p;
    m += is_lms(p);
  }
  // Name each LMS substring by rank; equal substrings share a name.
  // Position p keeps its name in its own slot, sa[m + p / 2]: LMS
  // positions are at least two apart.  The sentinel's substring, the
  // only one of length 1, sorts first.
  std::fill(sa + m, sa + n, kEmpty);
  sa[m + (n - 1) / 2] = 0;
  std::int32_t names = 1;
  for (std::int32_t i = 1, prev = n - 1, prev_len = 1; i < m; ++i) {
    std::int32_t pos = sa[i];
    std::int32_t len = lms_substring_length(type, pos);
    names += !same_substring(text, pos, prev, len, len == prev_len);
    sa[m + pos / 2] = names - 1;
    prev = pos;
    prev_len = len;
  }
  // Gather the names, in text order, into the reduced string at sa[n-m, n).
  // Every slot is copied to sa[j - 1], at or above i and so already read;
  // only a name moves j down, so an empty copy is overwritten by the next.
  for (std::int32_t i = n, j = n; i-- > m;) {
    std::int32_t v = sa[i];
    sa[j - 1] = v;
    j -= v != kEmpty;
  }

  // Stage 2: suffix array of the reduced string into sa[0, m); recurse
  // only when two LMS substrings share a name.
  std::int32_t* reduced = sa + n - m;
  if (names < m) {
    sais(static_cast<const std::int32_t*>(reduced), m, names, sa, work,
         types_at + static_cast<std::size_t>(n) + kPad,
         counters_at + 2 * static_cast<std::size_t>(alphabet));
    type = work.types.data() + types_at;
    counts = work.counters.data() + counters_at;
    bucket = counts + alphabet;
  } else {
    for (std::int32_t i = 0; i < m; ++i) sa[reduced[i]] = i;
  }

  // Stage 3: map reduced ranks back to LMS positions, seed them in sorted
  // order at their bucket ends, and induce the full suffix array.  The
  // last position (the sentinel) is LMS, so the listing writes only
  // reduced[0, m).
  for (std::int32_t i = 1, j = 0; i < n; ++i) {
    reduced[j] = i;
    j += is_lms(i);
  }
  for (std::int32_t i = 0; i < m; ++i) sa[i] = reduced[sa[i]];
  std::fill(sa + m, sa + n, kEmpty);
  bucket_ends(counts, alphabet, bucket);
  for (std::int32_t i = m; i-- > 0;) {
    std::int32_t j = sa[i];
    sa[i] = kEmpty;
    sa[--bucket[text[j]]] = j;
  }
  induce(text, n, alphabet, type, counts, bucket, sa);
}

/// Suffix array of `data` into work.sa (data.size() + 1 entries).
void sort_suffixes(BytesView data, Workspace& work) {
  if (data.size() >= static_cast<std::size_t>(INT32_MAX)) {
    throw std::length_error("suffix_array: input too long for int32 indices");
  }
  work.text.assign(data.begin(), data.end());
  work.text.resize(data.size() + kPad);
  work.sa.resize(data.size() + 1);
  ShiftedBytes text{work.text.data(), static_cast<std::int32_t>(data.size())};
  // Signed and unsigned variants of one integer type may alias, so SA-IS
  // works in place on the unsigned array.
  sais(text, static_cast<std::int32_t>(work.sa.size()), 257,
       reinterpret_cast<std::int32_t*>(work.sa.data()), work, 0, 0);
}

/// BWT of `block` into work.transformed; returns the primary index.  Every
/// row writes an output byte; the primary row's (suffix 0 has no
/// predecessor) is overwritten by the next row's.
std::uint32_t transform_block(BytesView block, Workspace& work) {
  sort_suffixes(block, work);
  const std::uint8_t* text = work.text.data();
  work.transformed.resize(block.size() + 1);
  std::uint8_t* out = work.transformed.data();
  std::uint32_t primary = 0;
  std::size_t k = 0;
  for (std::size_t i = 0; i < work.sa.size(); ++i) {
    std::uint32_t p = work.sa[i];
    std::uint32_t first = p == 0;
    primary |= static_cast<std::uint32_t>(i) & (0u - first);
    out[k] = text[p - 1 + first];
    k += 1 - first;
  }
  work.transformed.resize(block.size());
  return primary;
}

}  // namespace

std::vector<std::uint32_t> suffix_array(BytesView data) {
  Workspace work;
  sort_suffixes(data, work);
  return std::move(work.sa);
}

Bytes bwt_forward(BytesView block, std::uint32_t& primary_index) {
  Workspace work;
  primary_index = transform_block(block, work);
  return std::move(work.transformed);
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

namespace {

// Move-to-front over the order held as 32 words of 8 entries, each word in
// memory byte order.  BWT output of coefficient data has widely spread
// ranks (about 30% are 8 or more), so a search byte by byte mispredicted
// its exit on nearly every symbol; a word compares 8 entries at once and
// shifts them with one blend, and the first word stays in a register.

/// 0x80 in each byte of `x` that is zero, 0 elsewhere (exact: no carry
/// crosses a byte).
inline std::uint64_t zero_bytes(std::uint64_t x) {
  constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
  return ~(((x & kLow7) + kLow7) | x | kLow7);
}

/// `word` with every entry moved one place later in memory and `first`
/// (a byte value) in place 0.
inline std::uint64_t push_front(std::uint64_t word, std::uint64_t first) {
  return kLittleEndian ? (word << 8) | first : (word >> 8) | (first << 56);
}

/// The entry in the last memory place of `word`.
inline std::uint64_t last_entry(std::uint64_t word) {
  return kLittleEndian ? word >> 56 : word & 0xFF;
}

/// push_front(word, first) in places 0..at, `word` after them: the move
/// of an entry found at place `at`.
inline std::uint64_t move_to_front(std::uint64_t word, std::uint64_t first,
                                   std::int32_t at) {
  const std::uint64_t keep = kLittleEndian ? (~0ULL << (8 * at)) << 8
                                           : (~0ULL >> (8 * at)) >> 8;
  return (word & keep) | (push_front(word, first) & ~keep);
}

}  // namespace

Bytes mtf_encode(BytesView input) {
  std::array<std::uint64_t, 32> order;
  std::array<std::uint8_t, 256> identity;
  for (int i = 0; i < 256; ++i) identity[i] = static_cast<std::uint8_t>(i);
  std::memcpy(order.data(), identity.data(), sizeof(order));
  std::uint64_t head = order[0];  // order[0] lives here
  Bytes out(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    const std::uint8_t b = input[i];
    const std::uint64_t pattern = 0x0101010101010101ULL * b;
    std::uint64_t hit = zero_bytes(head ^ pattern);
    if (hit != 0) {
      const std::int32_t at = first_nonzero_byte(hit);
      out[i] = static_cast<std::uint8_t>(at);
      head = move_to_front(head, b, at);
      continue;
    }
    std::size_t w = 1;
    while ((hit = zero_bytes(order[w] ^ pattern)) == 0) ++w;
    const std::int32_t at = first_nonzero_byte(hit);
    out[i] = static_cast<std::uint8_t>(8 * w + static_cast<std::size_t>(at));
    std::uint64_t carry = last_entry(head);
    head = push_front(head, b);
    for (std::size_t k = 1; k < w; ++k) {
      const std::uint64_t word = order[k];
      order[k] = push_front(word, carry);
      carry = last_entry(word);
    }
    order[w] = move_to_front(order[w], carry, at);
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
  Workspace work;
  Bytes out;
  util::put_u32(out, static_cast<std::uint32_t>(input.size()));
  std::size_t offset = 0;
  while (offset < input.size()) {
    std::size_t len = std::min(block_size_, input.size() - offset);
    BytesView block = input.subspan(offset, len);
    offset += len;

    std::uint32_t primary = transform_block(block, work);
    Bytes mtf = mtf_encode(work.transformed);
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
