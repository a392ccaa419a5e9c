#include "wavelet/haar.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <type_traits>

#include "util/fmt.hpp"

namespace avf::wavelet {

namespace {

void check_geometry(int width, int height, int levels) {
  if (levels < 1 || levels > 12) {
    throw std::invalid_argument(
        util::format("pyramid levels must be in [1, 12], got {}", levels));
  }
  if (width <= 0 || height <= 0 || width % (1 << levels) != 0 ||
      height % (1 << levels) != 0) {
    throw std::invalid_argument(util::format(
        "image {}x{} not divisible by 2^{}", width, height, levels));
  }
}

/// One forward 2-D Haar step in one pass over row pairs.  `src` is the
/// `w x h` input (row stride `w`, pixels or the previous level's LL).  The
/// step's row lift (a = (x0+x1)>>1, d = x0-x1 along each row) and column
/// lift (the same down each column of the row-lifted pair) are computed
/// together for each 2x2 block, op for op as the two-pass form computes
/// them, so every coefficient is that form's: LL = column average of the
/// row averages, HL = column average of the row differences, LH = column
/// difference of the row averages, HH = column difference of the row
/// differences.  The detail bands are written directly; LL goes to `ll`
/// (row stride w/2), which may be `src` itself: block (x, y)'s LL value
/// lands at index y*w/2 + x, below every input index a later block reads.
template <typename In>
void forward_step(const In* src, int w, int h, std::int32_t* ll, Band& lh,
                  Band& hl, Band& hh) {
  const int half_w = w / 2;
  const int half_h = h / 2;
  for (Band* band : {&lh, &hl, &hh}) {
    band->coeffs.resize(static_cast<std::size_t>(half_w) * half_h);
  }
  for (int y = 0; y < half_h; ++y) {
    const In* r0 = src + static_cast<std::size_t>(2 * y) * w;
    const In* r1 = r0 + w;
    const std::size_t row = static_cast<std::size_t>(y) * half_w;
    std::int32_t* ll_row = ll + row;
    std::int16_t* lh_row = lh.coeffs.data() + row;
    std::int16_t* hl_row = hl.coeffs.data() + row;
    std::int16_t* hh_row = hh.coeffs.data() + row;
    for (int x = 0; x < half_w; ++x) {
      const std::int32_t p00 = r0[2 * x], p01 = r0[2 * x + 1];
      const std::int32_t p10 = r1[2 * x], p11 = r1[2 * x + 1];
      const std::int32_t a0 = (p00 + p01) >> 1, d0 = p00 - p01;
      const std::int32_t a1 = (p10 + p11) >> 1, d1 = p10 - p11;
      ll_row[x] = (a0 + a1) >> 1;
      hl_row[x] = static_cast<std::int16_t>((d0 + d1) >> 1);
      lh_row[x] = static_cast<std::int16_t>(a0 - a1);
      hh_row[x] = static_cast<std::int16_t>(d0 - d1);
    }
  }
}

/// One inverse 2-D Haar step in one pass: the `w x h` LL `ll` and the
/// level's three detail bands to the `2w x 2h` image `out`.  For each
/// coefficient position the column lift (x0 = a + ((d+1)>>1), x1 = x0 - d)
/// undoes LL/LH into a row-average pair and HL/HH into a row-difference
/// pair, and the row lift undoes each pair into pixels of rows 2y and
/// 2y+1 — the two-pass inverse's ops, in its order.  An unallocated band
/// reads as zero through `zeros` (at least w values).  Out is int32 for
/// the next level's LL, or uint8 (clamped to [0, 255]) for the image.
template <typename Out>
void inverse_step(const std::int32_t* ll, const Band& lh, const Band& hl,
                  const Band& hh, int w, int h, const std::int16_t* zeros,
                  Out* out) {
  auto row_of = [&](const Band& band, int y) {
    return band.coeffs.empty()
               ? zeros
               : band.coeffs.data() + static_cast<std::size_t>(y) * w;
  };
  auto emit = [](std::int32_t v) {
    if constexpr (std::is_same_v<Out, std::uint8_t>) {
      return static_cast<std::uint8_t>(std::clamp(v, 0, 255));
    } else {
      return v;
    }
  };
  for (int y = 0; y < h; ++y) {
    const std::int32_t* ll_row = ll + static_cast<std::size_t>(y) * w;
    const std::int16_t* lh_row = row_of(lh, y);
    const std::int16_t* hl_row = row_of(hl, y);
    const std::int16_t* hh_row = row_of(hh, y);
    Out* o0 = out + static_cast<std::size_t>(2 * y) * (2 * w);
    Out* o1 = o0 + 2 * w;
    for (int x = 0; x < w; ++x) {
      const std::int32_t lh_d = lh_row[x], hh_d = hh_row[x];
      const std::int32_t a0 = ll_row[x] + ((lh_d + 1) >> 1);
      const std::int32_t a1 = a0 - lh_d;
      const std::int32_t d0 = hl_row[x] + ((hh_d + 1) >> 1);
      const std::int32_t d1 = d0 - hh_d;
      const std::int32_t p00 = a0 + ((d0 + 1) >> 1);
      const std::int32_t p10 = a1 + ((d1 + 1) >> 1);
      o0[2 * x] = emit(p00);
      o0[2 * x + 1] = emit(p00 - d0);
      o1[2 * x] = emit(p10);
      o1[2 * x + 1] = emit(p10 - d1);
    }
  }
}

}  // namespace

Pyramid::Pyramid(int width, int height, int levels)
    : width_(width), height_(height), levels_(levels) {
  check_geometry(width, height, levels);
  ll_.width = width >> levels;
  ll_.height = height >> levels;
  details_.resize(static_cast<std::size_t>(levels));
  for (int k = 1; k <= levels; ++k) {
    for (Band& band : details_[k - 1]) {
      band.width = width >> (levels - k + 1);
      band.height = height >> (levels - k + 1);
    }
  }
}

Pyramid::Pyramid(const Image& image, int levels)
    : Pyramid(image.width(), image.height(), levels) {
  // The first step reads the pixels; every step leaves its LL in one
  // quarter-size buffer, which the next step reads and overwrites.
  std::vector<std::int32_t> ll(static_cast<std::size_t>(width_ / 2) *
                               (height_ / 2));
  int w = width_, h = height_;
  for (int step = 0; step < levels; ++step) {
    // This step's detail bands belong to reconstruction level
    // k = levels - step.
    auto& bands = details_[levels - step - 1];
    Band& lh = bands[static_cast<int>(Orientation::kLH)];
    Band& hl = bands[static_cast<int>(Orientation::kHL)];
    Band& hh = bands[static_cast<int>(Orientation::kHH)];
    if (step == 0) {
      forward_step(image.pixels().data(), w, h, ll.data(), lh, hl, hh);
    } else {
      forward_step(ll.data(), w, h, ll.data(), lh, hl, hh);
    }
    w /= 2;
    h /= 2;
  }
  ll_.coeffs.resize(static_cast<std::size_t>(w) * h);
  for (std::size_t i = 0; i < ll_.coeffs.size(); ++i) {
    ll_.coeffs[i] = static_cast<std::int16_t>(ll[i]);
  }
}

const Band& Pyramid::detail(int k, Orientation o) const {
  if (k < 1 || k > levels_) {
    throw std::out_of_range(util::format("detail level {} not in [1,{}]", k,
                                         levels_));
  }
  return details_[k - 1][static_cast<int>(o)];
}

Image Pyramid::reconstruct(int level) const {
  if (level < 0 || level > levels_) {
    throw std::out_of_range(
        util::format("level {} not in [0,{}]", level, levels_));
  }
  // Every level's size is a positive multiple of the LL's, so the image
  // is never empty and its pixels are one row-major block from at(0, 0).
  Image img(width_at(level), height_at(level));
  std::uint8_t* pixels = &img.at(0, 0);
  // An unallocated LL reads as zero, as every unallocated band does.
  std::vector<std::int32_t> ll(ll_.coeffs.begin(), ll_.coeffs.end());
  ll.resize(static_cast<std::size_t>(ll_.width) * ll_.height);
  if (level == 0) {
    for (std::size_t i = 0; i < ll.size(); ++i) {
      pixels[i] = static_cast<std::uint8_t>(std::clamp(ll[i], 0, 255));
    }
    return img;
  }
  const std::vector<std::int16_t> zeros(
      static_cast<std::size_t>(width_at(level - 1)), 0);
  std::vector<std::int32_t> next;
  for (int k = 1; k <= level; ++k) {
    const Band& lh = detail(k, Orientation::kLH);
    const Band& hl = detail(k, Orientation::kHL);
    const Band& hh = detail(k, Orientation::kHH);
    if (k == level) {
      inverse_step(ll.data(), lh, hl, hh, lh.width, lh.height, zeros.data(),
                   pixels);
    } else {
      next.resize(4 * ll.size());
      inverse_step(ll.data(), lh, hl, hh, lh.width, lh.height, zeros.data(),
                   next.data());
      ll.swap(next);
    }
  }
  return img;
}

}  // namespace avf::wavelet
